package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/mmap"
)

// TestMmapSnapshotOfGrowingFile pins down the mapped source's lifecycle
// against a file that is still being written: a mapping is a fixed-size
// snapshot taken at the first pass, so a decode over a half-written
// trace classifies the cut as ErrTruncatedTail (never as corruption),
// and appended bytes are invisible to the already-mapped source — a
// fresh source must be opened to see the grown file. Live tails belong
// to internal/watch, whose reader stays on ReadAt for exactly this
// reason.
func TestMmapSnapshotOfGrowingFile(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 3000)
	raw := encodedSync(t, app.Prog, tr, 128)
	dir := t.TempDir()

	if probe, err := os.Create(filepath.Join(dir, "probe")); err == nil {
		probe.WriteString("x")
		_, merr := mmap.Map(probe, 1)
		probe.Close()
		if merr != nil {
			t.Skipf("no mmap on this platform: %v", merr)
		}
	}

	path := filepath.Join(dir, "trace.pt")
	cut := len(raw) * 2 / 3
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	partial := FileSourceOptions(path, app.Prog, FileOptions{})
	defer partial.(io.Closer).Close()
	if _, err := blockseq.Collect(partial); !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("decode of half-written file = %v, want ErrTruncatedTail", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The first source's mapping was sized at map time: the appended
	// tail is beyond it, and a re-pass still reports the truncation.
	if _, err := blockseq.Collect(partial); !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("re-pass over stale mapping = %v, want ErrTruncatedTail", err)
	}

	fresh := FileSourceOptions(path, app.Prog, FileOptions{})
	defer fresh.(io.Closer).Close()
	got, err := blockseq.Collect(fresh)
	if err != nil {
		t.Fatalf("decode of completed file: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("block %d is %d, want %d", i, got[i], tr[i])
		}
	}
}
