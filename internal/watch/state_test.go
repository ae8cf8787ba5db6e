package watch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ripple/internal/fault"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// parentState is the fixed State behind testdata/parent.ptwatch, a
// checkpoint written by SaveState while State.Mark was still a named
// byte-slice type. Its mark is consistent with the state: a pass that
// read the header, anchored at byte 2048 after 1000 blocks, and consumed
// 24 more of 3003 declared.
func parentState() *State {
	return &State{
		PrefixLen: 4096,
		PrefixSHA: [32]byte{0: 0xde, 1: 0xad, 30: 0xbe, 31: 0xef},
		Declared:  3003,
		// version 1, flags header, anchor 2048, anchor blocks 1000,
		// skip 24, declared 3003 (uvarints).
		Mark:  []byte{0x01, 0x02, 0x80, 0x10, 0xe8, 0x07, 0x18, 0xbb, 0x17},
		Total: 1024,
		Window: []program.BlockID{
			5, 9, 2, 6, 5, 3, 5, 8, 9, 7,
		},
		Epoch:          4,
		Revision:       2,
		PublishedScore: 1.75,
		PublishedHash:  "9f86d081884c7d65",
		Pending:        1,
		Regions: []trace.DamageRegion{
			{Offset: 1500, Resume: 2048, Reason: "trace: offset 1500 (TNT): bad packet"},
		},
		DamageEver:      true,
		LastDamageTotal: 1000,
	}
}

// TestLoadParentState: a checkpoint written before State.Mark became a
// plain []byte loads back as exactly the state that wrote it. gob encodes
// a named byte-slice type and []byte identically, so existing .ptwatch
// files keep resuming.
func TestLoadParentState(t *testing.T) {
	got, err := LoadState(filepath.Join("testdata", "parent.ptwatch"))
	if err != nil {
		t.Fatal(err)
	}
	if want := parentState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v\nwant   %+v", got, want)
	}
}

// TestMismatchedCheckpointStartsFresh: a sealed checkpoint whose mark
// declares fewer blocks than its state is discarded with a log line, and
// the watcher analyzes the whole clean trace from the start instead of
// resuming into a pass that ends early and blames the trace.
func TestMismatchedCheckpointStartsFresh(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, out)
	cfg.StatePath = filepath.Join(dir, "trace.ptwatch")
	cfg.MaxBlocks = 1024
	if res, err := Run(cfg); err != nil || res.Outcome != OutcomePaused || res.Total != 1024 {
		t.Fatalf("pausing run: %+v, %v", res, err)
	}

	st, err := LoadState(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := parseMark(st.Mark)
	if err != nil {
		t.Fatal(err)
	}
	if st.Declared != uint64(len(ref)) || mk.declared != st.Declared {
		t.Fatalf("paused state declares %d (mark %d), want %d", st.Declared, mk.declared, len(ref))
	}
	mk.declared = st.Total // the mark now says the stream ends here
	st.Mark = mk.encode()
	if err := SaveState(cfg.StatePath, st); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	cfg.MaxBlocks = 0
	cfg.Log = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "discarding checkpoint") {
		t.Errorf("mismatched checkpoint not reported; log:\n%s", log.String())
	}
	if res.Resumed || res.Outcome != OutcomeComplete || res.Total != uint64(len(ref)) || res.Regions != 0 {
		t.Fatalf("run after a mismatched checkpoint: %+v, want a fresh complete run to block %d with no damage\nlog:\n%s",
			res, len(ref), log.String())
	}
}

// FuzzLoadState: loading never panics on a sealed checkpoint with an
// arbitrary body, every rejection wraps ErrStateCorrupt, and an accepted
// state saves again and loads back equal. Each input is re-sealed with
// the magic and a valid SHA-256 trailer so it reaches the gob decoder.
// Equality is gob's: the reloaded state saves to the same bytes, so a NaN
// score or an empty-versus-nil slice compares equal.
func FuzzLoadState(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent.ptwatch"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(stateMagic) : len(raw)-sha256.Size])
	if raw, err = encodeState(new(bytes.Buffer), &State{Mark: tailMark{flags: markFlagHeader}.encode()}); err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(stateMagic) : len(raw)-sha256.Size])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := append([]byte(stateMagic), body...)
		sum := sha256.Sum256(sealed)
		st, err := decodeState(append(sealed, sum[:]...), "fuzz")
		if err != nil {
			if !errors.Is(err, ErrStateCorrupt) {
				t.Fatalf("rejection does not wrap ErrStateCorrupt: %v", err)
			}
			return
		}
		again, err := encodeState(new(bytes.Buffer), st)
		if err != nil {
			t.Fatalf("accepted state does not save: %v", err)
		}
		back, err := decodeState(again, "fuzz")
		if err != nil {
			t.Fatalf("re-saved state does not load: %v", err)
		}
		if twice, err := encodeState(new(bytes.Buffer), back); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("state changed across save/load (%v):\n%+v\n%+v", err, st, back)
		}
	})
}

// TestCheckpointsHashTraceOnce: a watcher following a growing trace
// re-binds every checkpoint to the bytes written so far, yet hashes each
// trace byte once over the run rather than the whole prefix again at
// each checkpoint, and still binds the final checkpoint to the SHA-256
// of the complete file.
func TestCheckpointsHashTraceOnce(t *testing.T) {
	prog, _, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.pt")
	app := fault.NewAppender(path, data, 7, 37, 997)
	done := make(chan error, 1)
	go func() { done <- app.Run(context.Background(), 100*time.Microsecond) }()

	cfg := watchCfg(t, prog, path, dir)
	cfg.CheckpointEvery = 64
	cfg.Tail = TailConfig{Follow: true, Stall: 10 * time.Second}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w := &watcher{cfg: cfg}
	res, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("appender: %v", err)
	}
	if res.Outcome != OutcomeComplete {
		t.Fatalf("outcome %s, want %s", res.Outcome, OutcomeComplete)
	}
	checkpoints := res.Total/uint64(cfg.CheckpointEvery) + 1
	if w.prefix.hashed != int64(len(data)) {
		t.Fatalf("%d checkpoints hashed %d bytes of a %d-byte trace, want each byte once",
			checkpoints, w.prefix.hashed, len(data))
	}
	if w.st.PrefixLen != int64(len(data)) || w.st.PrefixSHA != sha256.Sum256(data) {
		t.Fatalf("final checkpoint binds %d bytes, want the whole %d-byte trace", w.st.PrefixLen, len(data))
	}
}

// TestPrefixHasherMatchesFreshHash: every sum equals a from-scratch hash
// of the file's prefix while the file grows, shrinks (which rehashes
// from byte 0) and comes up short (which fails and restarts the next
// sum from byte 0).
func TestPrefixHasherMatchesFreshHash(t *testing.T) {
	data := bytes.Repeat([]byte("ripple"), 1000)
	path := filepath.Join(t.TempDir(), "trace.pt")
	var p prefixHasher
	for _, step := range []struct {
		fileLen, size, hashed int64
		short                 bool
	}{
		{fileLen: 3000, size: 3000, hashed: 3000},
		{fileLen: 6000, size: 4000, hashed: 4000},
		{fileLen: 6000, size: 6000, hashed: 6000},
		{fileLen: 2000, size: 2000, hashed: 8000},
		{fileLen: 2000, size: 5000, hashed: 8000, short: true},
		{fileLen: 6000, size: 6000, hashed: 14000},
	} {
		if err := os.WriteFile(path, data[:step.fileLen], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := p.sum(path, step.size)
		if step.short {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("sum(%d) of a %d-byte file: err %v, want io.ErrUnexpectedEOF", step.size, step.fileLen, err)
			}
		} else if err != nil {
			t.Fatal(err)
		} else if got != sha256.Sum256(data[:step.size]) {
			t.Fatalf("sum(%d) of a %d-byte file differs from a fresh hash", step.size, step.fileLen)
		}
		if p.hashed != step.hashed {
			t.Fatalf("after sum(%d) of a %d-byte file: %d bytes hashed in all, want %d", step.size, step.fileLen, p.hashed, step.hashed)
		}
	}
}
