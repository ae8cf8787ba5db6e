package blockseqtest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// TestSourceCheckpoint asserts the blockseq.Checkpointer contract
// against a source whose passes implement it: a mark taken mid-pass
// restores onto a fresh pass byte-identically (and repeatably), marks at
// the start and end round-trip, and a garbage mark is rejected.
func TestSourceCheckpoint(t *testing.T, open func(t *testing.T) blockseq.Source) {
	t.Helper()

	ckpt := func(t *testing.T, src blockseq.Source) (blockseq.Seq, blockseq.Checkpointer) {
		t.Helper()
		seq := src.Open()
		cp, ok := seq.(blockseq.Checkpointer)
		if !ok {
			t.Fatalf("pass (%T) does not implement blockseq.Checkpointer", seq)
		}
		return seq, cp
	}

	t.Run("roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		for _, n := range markPoints(len(ref)) {
			seq, cp := ckpt(t, src)
			for i := 0; i < n; i++ {
				if _, ok := seq.Next(); !ok {
					t.Fatalf("pass ended early at block %d", i)
				}
			}
			mark, err := cp.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint at %d: %v", n, err)
			}
			tail := drain(t, seq) // the checkpointed pass keeps going
			requireEqual(t, ref[n:], tail, "checkpointed pass tail at %d", n)
			// Restoring a fresh pass — twice — replays the identical tail.
			for round := 1; round <= 2; round++ {
				fresh, fcp := ckpt(t, src)
				if err := fcp.Restore(mark); err != nil {
					t.Fatalf("Restore (round %d) of mark at %d: %v", round, n, err)
				}
				requireEqual(t, tail, drain(t, fresh), "restored pass at %d, round %d", n, round)
			}
		}
	})

	t.Run("resume-source", func(t *testing.T) {
		// A restored pass checkpoints like any other — straight after the
		// restore and after reading further — which is how a restarted
		// consumer keeps checkpointing where its predecessor stopped.
		src := open(t)
		ref := mustCollect(t, src)
		n := len(ref) / 2
		seq, cp := ckpt(t, src)
		for i := 0; i < n; i++ {
			if _, ok := seq.Next(); !ok {
				t.Fatalf("pass ended early at block %d", i)
			}
		}
		mark, err := cp.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint at %d: %v", n, err)
		}
		// Every pass of blockseq.Resume replays the checkpointed suffix.
		for pass := 1; pass <= 2; pass++ {
			got := mustCollect(t, blockseq.Resume(src, mark))
			requireEqual(t, ref[n:], got, "Resume pass %d", pass)
		}
		resumed, rcp := ckpt(t, src)
		if err := rcp.Restore(mark); err != nil {
			t.Fatalf("Restore of mark at %d: %v", n, err)
		}
		again, err := rcp.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint right after Restore at %d: %v", n, err)
		}
		m := n + (len(ref)-n)/2
		for i := n; i < m; i++ {
			if _, ok := resumed.Next(); !ok {
				t.Fatalf("resumed pass ended early at block %d", i)
			}
		}
		later, err := rcp.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint of the resumed pass at %d: %v", m, err)
		}
		requireEqual(t, ref[m:], drain(t, resumed), "resumed pass tail at %d", m)
		for _, c := range []struct {
			mark blockseq.Mark
			at   int
		}{{again, n}, {later, m}} {
			fresh, fcp := ckpt(t, src)
			if err := fcp.Restore(c.mark); err != nil {
				t.Fatalf("Restore of a resumed pass's mark at %d: %v", c.at, err)
			}
			requireEqual(t, ref[c.at:], drain(t, fresh), "pass restored from a resumed pass's mark at %d", c.at)
		}
	})

	t.Run("garbage-mark", func(t *testing.T) {
		src := open(t)
		_, cp := ckpt(t, src)
		for _, m := range []blockseq.Mark{nil, {0xff}} {
			if err := cp.Restore(m); err == nil {
				t.Fatalf("Restore(%v) succeeded; want an error", []byte(m))
			}
		}
	})
}

// TestSourceCheckpointDisk asserts that checkpoint marks survive
// serialization across process boundaries: a mark taken mid-pass is
// written to disk as raw bytes, read back, and restored onto a fresh
// pass — byte-identical tails. A mark that only works in the process
// that minted it (hidden pointers, in-memory side tables) fails here
// even though it passes TestSourceCheckpoint.
func TestSourceCheckpointDisk(t *testing.T, open func(t *testing.T) blockseq.Source) {
	t.Helper()
	t.Run("disk-roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		dir := t.TempDir()
		for i, n := range markPoints(len(ref)) {
			seq := src.Open()
			cp, ok := seq.(blockseq.Checkpointer)
			if !ok {
				t.Fatalf("pass (%T) does not implement blockseq.Checkpointer", seq)
			}
			for j := 0; j < n; j++ {
				if _, ok := seq.Next(); !ok {
					t.Fatalf("pass ended early at block %d", j)
				}
			}
			mark, err := cp.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint at %d: %v", n, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("mark-%d", i))
			if err := os.WriteFile(path, mark, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Restore from the disk bytes in a fresh pass of a freshly
			// opened source — nothing shared with the minting pass.
			fresh := open(t).Open()
			fcp, ok := fresh.(blockseq.Checkpointer)
			if !ok {
				t.Fatalf("fresh pass (%T) does not implement blockseq.Checkpointer", fresh)
			}
			if err := fcp.Restore(blockseq.Mark(loaded)); err != nil {
				t.Fatalf("Restore of disk mark at %d: %v", n, err)
			}
			requireEqual(t, ref[n:], drain(t, fresh), "disk-restored pass at %d", n)
		}
	})
}

// markPoints samples positions across a stream of n blocks, always
// including both ends.
func markPoints(n int) []int {
	pts := []int{0}
	for _, p := range []int{n / 4, n / 2, 3 * n / 4, n - 1, n} {
		if p > 0 && p != pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

// drain reads a pass to exhaustion, failing the test on a pass error.
func drain(t *testing.T, seq blockseq.Seq) []program.BlockID {
	t.Helper()
	var out []program.BlockID
	for {
		bid, ok := seq.Next()
		if !ok {
			if err := seq.Err(); err != nil {
				t.Fatalf("pass failed: %v", err)
			}
			return out
		}
		out = append(out, bid)
	}
}

// CountingSource wraps a source and counts every block its passes yield,
// forwarding LenHint and the Checkpointer capability of the wrapped
// passes. Perf tests wrap a source with it to assert how much replay
// work a consumer actually performed; wrapping it in OpaqueSource hides
// the capability to exercise fallback paths.
type CountingSource struct {
	Src blockseq.Source
	n   atomic.Uint64
}

// Count wraps src in a CountingSource.
func Count(src blockseq.Source) *CountingSource { return &CountingSource{Src: src} }

// Blocks returns the total blocks yielded across all passes so far.
func (c *CountingSource) Blocks() uint64 { return c.n.Load() }

// Open implements blockseq.Source.
func (c *CountingSource) Open() blockseq.Seq { return &countingSeq{seq: c.Src.Open(), c: c} }

// LenHint forwards the wrapped source's hint.
func (c *CountingSource) LenHint() (int, bool) { return blockseq.LenHint(c.Src) }

type countingSeq struct {
	seq blockseq.Seq
	c   *CountingSource
}

func (s *countingSeq) Next() (program.BlockID, bool) {
	bid, ok := s.seq.Next()
	if ok {
		s.c.n.Add(1)
	}
	return bid, ok
}

func (s *countingSeq) Err() error { return s.seq.Err() }

// Checkpoint forwards to the wrapped pass when it checkpoints.
func (s *countingSeq) Checkpoint() (blockseq.Mark, error) {
	if cp, ok := s.seq.(blockseq.Checkpointer); ok {
		return cp.Checkpoint()
	}
	return nil, blockseq.ErrNoCheckpoint
}

// Restore forwards to the wrapped pass when it checkpoints.
func (s *countingSeq) Restore(m blockseq.Mark) error {
	if cp, ok := s.seq.(blockseq.Checkpointer); ok {
		return cp.Restore(m)
	}
	return blockseq.ErrNoCheckpoint
}

// OpaqueSource strips every optional capability from a source: its
// passes expose only Next/Err. Byte-identity tests run a consumer over
// the capable and the opaque form of the same source to prove the
// accelerated and fallback paths agree.
type OpaqueSource struct{ Src blockseq.Source }

// Open implements blockseq.Source.
func (o OpaqueSource) Open() blockseq.Seq { return opaqueSeq{seq: o.Src.Open()} }

type opaqueSeq struct{ seq blockseq.Seq }

func (s opaqueSeq) Next() (program.BlockID, bool) { return s.seq.Next() }
func (s opaqueSeq) Err() error                    { return s.seq.Err() }
