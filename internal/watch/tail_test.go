package watch

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/fault"
	"ripple/internal/program"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

func tinyApp(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "watch-tiny", Seed: 5,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// makeTrace builds a sync-pointed trace stream: the program, the
// reference block sequence, and the encoded bytes.
func makeTrace(t *testing.T, minBlocks, every int) (*program.Program, []program.BlockID, []byte) {
	t.Helper()
	app := tinyApp(t)
	tr := app.Trace(0, minBlocks)
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(tr), every); err != nil {
		t.Fatal(err)
	}
	return app.Prog, tr, buf.Bytes()
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func drainTail(seq *TailSeq) []program.BlockID {
	var out []program.BlockID
	for {
		bid, ok := seq.Next()
		if !ok {
			return out
		}
		out = append(out, bid)
	}
}

// TestTailSourceConformance: over a static, complete trace file the tail
// source is an ordinary recovery decode, and its checkpoint marks are
// plain bytes that survive a disk round-trip into a fresh source.
func TestTailSourceConformance(t *testing.T) {
	prog, _, data := makeTrace(t, 2000, 128)
	path := writeFile(t, t.TempDir(), "trace.pt", data)
	open := func(*testing.T) *TailSource {
		return NewTailSource(path, prog, TailConfig{Follow: false})
	}
	blockseqtest.TestSource(t, func(t *testing.T) blockseq.Source { return open(t) })
	testTailCheckpoint(t, open)
	testTailCheckpointDisk(t, open)
}

// TestTailFollowsAppender: a follow pass racing a seeded bursty appender
// decodes exactly the offline sequence and ends cleanly at the stream's
// END packet, whatever the burst timing.
func TestTailFollowsAppender(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	path := filepath.Join(t.TempDir(), "trace.pt")
	app := fault.NewAppender(path, data, 42, 37, 997)
	done := make(chan error, 1)
	go func() { done <- app.Run(context.Background(), 100*time.Microsecond) }()

	src := NewTailSource(path, prog, TailConfig{Follow: true, Stall: 10 * time.Second})
	seq := src.OpenTail()
	got := drainTail(seq)
	if err := seq.Err(); err != nil {
		t.Fatalf("follow pass ended with %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("appender: %v", err)
	}
	if len(got) != len(ref) {
		t.Fatalf("followed %d blocks, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("block %d is %d, want %d", i, got[i], ref[i])
		}
	}
	if seq.Declared() != uint64(len(ref)) || seq.Emitted() != uint64(len(ref)) {
		t.Fatalf("declared %d emitted %d, want %d", seq.Declared(), seq.Emitted(), len(ref))
	}
	if n := seq.RegionCount(); n != 0 {
		t.Fatalf("clean stream accumulated %d damage regions", n)
	}
}

// TestTailDamageMatchesOffline: damage planned into the byte stream
// (a dropped span, spliced garbage) decodes through the tail — while the
// appender races it — to exactly the blocks and damage regions an
// offline DecodeRecover of the final bytes reports.
func TestTailDamageMatchesOffline(t *testing.T) {
	prog, _, clean := makeTrace(t, 3000, 128)
	cases := map[string]func() []byte{
		"drop-span": func() []byte {
			mut, _, _ := fault.NewInjector(7).DropSpan(clean, 40, len(clean)/3, 2*len(clean)/3)
			return mut
		},
		"garbage": func() []byte {
			mut, _ := fault.NewInjector(8).InsertGarbage(clean, 64, len(clean)/3, 2*len(clean)/3)
			return mut
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			data := mutate()
			wantBlocks, wantRep, err := trace.DecodeRecover(bytes.NewReader(data), prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantRep.Regions) == 0 {
				t.Fatal("fixture fault produced no damage; pick different offsets")
			}

			path := filepath.Join(t.TempDir(), "trace.pt")
			app := fault.NewAppender(path, data, 11, 53, 777)
			done := make(chan error, 1)
			go func() { done <- app.Run(context.Background(), 100*time.Microsecond) }()

			src := NewTailSource(path, prog, TailConfig{Follow: true, Stall: 10 * time.Second})
			seq := src.OpenTail()
			got := drainTail(seq)
			if err := seq.Err(); err != nil {
				t.Fatalf("follow pass ended with %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("appender: %v", err)
			}
			if len(got) != len(wantBlocks) {
				t.Fatalf("tail decoded %d blocks, offline %d", len(got), len(wantBlocks))
			}
			for i := range got {
				if got[i] != wantBlocks[i] {
					t.Fatalf("block %d is %d, offline %d", i, got[i], wantBlocks[i])
				}
			}
			regs := seq.Regions()
			if len(regs) != len(wantRep.Regions) {
				t.Fatalf("tail saw %d regions, offline %d", len(regs), len(wantRep.Regions))
			}
			for i, reg := range regs {
				if reg.Offset != wantRep.Regions[i].Offset || reg.Resume != wantRep.Regions[i].Resume {
					t.Fatalf("region %d = %+v, offline %+v", i, reg, wantRep.Regions[i])
				}
			}
			// Exact accounting: decoded + lost = declared.
			if seq.Emitted()+wantRep.BlocksLost() != seq.Declared() {
				t.Fatalf("emitted %d + lost %d != declared %d", seq.Emitted(), wantRep.BlocksLost(), seq.Declared())
			}
		})
	}
}

// TestTailZeroSpanDecodesPastIt: 64 zeroed bytes in the middle of a
// 100k-block kafka trace read as an END packet, yet sync points follow
// it. An offline decode, streamed and mapped, and a follow-mode tail
// racing the appender must all resync past the span to the same blocks
// and region, and each must keep at least 99% of the declared blocks.
func TestTailZeroSpanDecodesPastIt(t *testing.T) {
	m, ok := workload.ByName("kafka")
	if !ok {
		t.Fatal("no kafka workload")
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(app.Trace(0, 100_000)), 256); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	clear(data[len(data)/2 : len(data)/2+64])

	wantBlocks, wantRep, err := trace.DecodeRecover(bytes.NewReader(data), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRep.Regions) != 1 || !strings.Contains(wantRep.Regions[0].Reason, "(END)") || wantRep.Regions[0].Resume < 0 {
		t.Fatalf("offline decode: regions %+v, want one that resumes past a zero read as END", wantRep.Regions)
	}
	if wantRep.Coverage() < 0.99 {
		t.Fatalf("offline decode kept %d of %d blocks", wantRep.Decoded, wantRep.Declared)
	}
	requireSame := func(label string, got []program.BlockID, regs []trace.DamageRegion) {
		t.Helper()
		if !slices.Equal(got, wantBlocks) {
			t.Fatalf("%s decoded %d blocks, the streamed decode %d (or they differ)", label, len(got), len(wantBlocks))
		}
		if !slices.Equal(regs, wantRep.Regions) {
			t.Fatalf("%s saw regions %+v, the streamed decode %+v", label, regs, wantRep.Regions)
		}
	}

	mapped := trace.BytesSource(data, app.Prog, trace.FileOptions{Recover: true})
	got, err := blockseq.Collect(mapped)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := mapped.(trace.Reporting).DecodeReport()
	requireSame("mapped decode", got, rep.Regions)

	path := filepath.Join(t.TempDir(), "trace.pt")
	appender := fault.NewAppender(path, data, 11, 53, 777)
	done := make(chan error, 1)
	go func() { done <- appender.Run(context.Background(), 100*time.Microsecond) }()
	seq := NewTailSource(path, app.Prog, TailConfig{Follow: true, Stall: 10 * time.Second}).OpenTail()
	got = drainTail(seq)
	if err := seq.Err(); err != nil {
		t.Fatalf("follow pass ended with %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("appender: %v", err)
	}
	requireSame("follow-mode tail", got, seq.Regions())
	if seq.Emitted() < seq.Declared()*99/100 {
		t.Fatalf("follow-mode tail kept %d of %d blocks", seq.Emitted(), seq.Declared())
	}
}

// TestTailStallAndResume: a writer that dies mid-stream stalls the pass;
// a fresh pass restored from the stalled pass's checkpoint picks up
// after the writer recovers, and the two passes together yield exactly
// the offline decode.
func TestTailStallAndResume(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	cut := 2 * len(data) / 3
	path := writeFile(t, dir, "trace.pt", data[:cut])

	src := NewTailSource(path, prog, TailConfig{Follow: true, Poll: time.Millisecond, Stall: 50 * time.Millisecond})
	seq := src.OpenTail()
	first := drainTail(seq)
	if !errors.Is(seq.Err(), ErrStalled) {
		t.Fatalf("pass over a dead writer ended with %v, want ErrStalled", seq.Err())
	}
	if len(first) == 0 || len(first) >= len(ref) {
		t.Fatalf("stalled after %d of %d blocks", len(first), len(ref))
	}
	mark := seq.Checkpoint()

	// The writer recovers and finishes the stream.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed := src.OpenTail()
	if err := resumed.Restore(mark); err != nil {
		t.Fatal(err)
	}
	rest := drainTail(resumed)
	if err := resumed.Err(); err != nil {
		t.Fatalf("resumed pass ended with %v", err)
	}
	got := append(first, rest...)
	if len(got) != len(ref) {
		t.Fatalf("stall+resume decoded %d blocks, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("block %d is %d, want %d", i, got[i], ref[i])
		}
	}
	if resumed.RegionCount() != 0 {
		t.Fatalf("clean stall/resume accumulated %d damage regions", resumed.RegionCount())
	}
}

// TestTailRotationDetected: swapping a fresh file under the tail ends
// the pass with ErrRotated — even though the replacement is larger than
// the read offset, so a size check alone would never fire.
func TestTailRotationDetected(t *testing.T) {
	prog, _, data := makeTrace(t, 2000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data[:len(data)/2])

	src := NewTailSource(path, prog, TailConfig{Follow: true, Poll: time.Millisecond, Stall: 5 * time.Second})
	seq := src.OpenTail()
	// Consume a little so the pass holds the original file open.
	for i := 0; i < 10; i++ {
		if _, ok := seq.Next(); !ok {
			t.Fatalf("pass died early: %v", seq.Err())
		}
	}
	// Rotate in a complete, larger replacement under a fresh inode.
	other := append(append([]byte(nil), data...), data...)
	if err := fault.Rotate(path, other); err != nil {
		t.Fatal(err)
	}
	drainTail(seq)
	if !errors.Is(seq.Err(), ErrRotated) {
		t.Fatalf("pass over a rotated file ended with %v, want ErrRotated", seq.Err())
	}
}

// TestTailCancel: closing the Done channel unblocks a waiting pass with
// ErrCanceled.
func TestTailCancel(t *testing.T) {
	prog, _, data := makeTrace(t, 2000, 128)
	path := writeFile(t, t.TempDir(), "trace.pt", data[:len(data)/2])
	done := make(chan struct{})
	src := NewTailSource(path, prog, TailConfig{Follow: true, Poll: time.Millisecond, Done: done})
	seq := src.OpenTail()
	finished := make(chan struct{})
	go func() {
		drainTail(seq)
		close(finished)
	}()
	time.Sleep(10 * time.Millisecond)
	close(done)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled pass did not unblock")
	}
	if !errors.Is(seq.Err(), ErrCanceled) {
		t.Fatalf("canceled pass ended with %v, want ErrCanceled", seq.Err())
	}
}

// TestTailCheckpointEveryBlock: marks taken at every block of a damaged
// stream restore byte-identically — including marks inside and after the
// damaged region — and a restored pass re-detects old damage without
// double-counting it.
func TestTailCheckpointEveryBlock(t *testing.T) {
	prog, _, clean := makeTrace(t, 1200, 64)
	data, _, _ := fault.NewInjector(5).DropSpan(clean, 32, len(clean)/3, len(clean)/2)
	path := writeFile(t, t.TempDir(), "trace.pt", data)
	src := NewTailSource(path, prog, TailConfig{Follow: false})

	ref := drainTail(src.OpenTail())
	refRegions := src.OpenTail()
	drainTail(refRegions)
	wantRegions := refRegions.RegionCount()
	if wantRegions == 0 {
		t.Fatal("fixture fault produced no damage")
	}

	seq := src.OpenTail()
	for n := 0; ; n++ {
		mark := seq.Checkpoint()
		fresh := src.OpenTail()
		if err := fresh.Restore(mark); err != nil {
			t.Fatalf("Restore at %d: %v", n, err)
		}
		tail := drainTail(fresh)
		if len(tail) != len(ref)-n {
			t.Fatalf("restored at %d: %d blocks, want %d", n, len(tail), len(ref)-n)
		}
		for i, bid := range tail {
			if bid != ref[n+i] {
				t.Fatalf("restored at %d: block %d is %d, want %d", n, n+i, bid, ref[n+i])
			}
		}
		if fresh.RegionCount() > wantRegions {
			t.Fatalf("restored at %d double-counted damage: %d regions, want <= %d", n, fresh.RegionCount(), wantRegions)
		}
		if _, ok := seq.Next(); !ok {
			break
		}
	}
}
