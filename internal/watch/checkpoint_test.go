package watch

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// testTailCheckpoint asserts the TailSeq checkpoint contract against a
// complete trace: a mark taken mid-pass restores onto a fresh pass
// byte-identically (and repeatably), marks at the start and end
// round-trip, a restored pass checkpoints like any other, and a garbage
// mark is rejected.
func testTailCheckpoint(t *testing.T, open func(t *testing.T) *TailSource) {
	t.Helper()

	t.Run("roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		for _, n := range markPoints(len(ref)) {
			seq := src.OpenTail()
			skipBlocks(t, seq, n)
			mark := seq.Checkpoint()
			tail := drainClean(t, seq) // the checkpointed pass keeps going
			requireEqual(t, ref[n:], tail, "checkpointed pass tail at %d", n)
			// Restoring a fresh pass — twice — replays the identical tail.
			for round := 1; round <= 2; round++ {
				fresh := src.OpenTail()
				if err := fresh.Restore(mark); err != nil {
					t.Fatalf("Restore (round %d) of mark at %d: %v", round, n, err)
				}
				requireEqual(t, tail, drainClean(t, fresh), "restored pass at %d, round %d", n, round)
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
		seq := src.OpenTail()
		skipBlocks(t, seq, n)
		mark := seq.Checkpoint()
		resumed := src.OpenTail()
		if err := resumed.Restore(mark); err != nil {
			t.Fatalf("Restore of mark at %d: %v", n, err)
		}
		again := resumed.Checkpoint()
		m := n + (len(ref)-n)/2
		for i := n; i < m; i++ {
			if _, ok := resumed.Next(); !ok {
				t.Fatalf("resumed pass ended early at block %d", i)
			}
		}
		later := resumed.Checkpoint()
		requireEqual(t, ref[m:], drainClean(t, resumed), "resumed pass tail at %d", m)
		for _, c := range []struct {
			mark []byte
			at   int
		}{{again, n}, {later, m}} {
			fresh := src.OpenTail()
			if err := fresh.Restore(c.mark); err != nil {
				t.Fatalf("Restore of a resumed pass's mark at %d: %v", c.at, err)
			}
			requireEqual(t, ref[c.at:], drainClean(t, fresh), "pass restored from a resumed pass's mark at %d", c.at)
		}
	})

	t.Run("garbage-mark", func(t *testing.T) {
		seq := open(t).OpenTail()
		for _, m := range [][]byte{nil, {0xff}} {
			if err := seq.Restore(m); err == nil {
				t.Fatalf("Restore(%v) succeeded; want an error", m)
			}
		}
	})
}

// testTailCheckpointDisk asserts that marks survive serialization across
// process boundaries: a mark taken mid-pass is written to disk as raw
// bytes, read back, and restored onto a fresh pass of a freshly opened
// source — byte-identical tails. A mark that only works in the process
// that minted it (hidden pointers, in-memory side tables) fails here
// even though it passes testTailCheckpoint.
func testTailCheckpointDisk(t *testing.T, open func(t *testing.T) *TailSource) {
	t.Helper()
	t.Run("disk-roundtrip", func(t *testing.T) {
		src := open(t)
		ref := mustCollect(t, src)
		dir := t.TempDir()
		for i, n := range markPoints(len(ref)) {
			seq := src.OpenTail()
			skipBlocks(t, seq, n)
			mark := seq.Checkpoint()
			path := filepath.Join(dir, fmt.Sprintf("mark-%d", i))
			if err := os.WriteFile(path, mark, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fresh := open(t).OpenTail()
			if err := fresh.Restore(loaded); err != nil {
				t.Fatalf("Restore of disk mark at %d: %v", n, err)
			}
			requireEqual(t, ref[n:], drainClean(t, fresh), "disk-restored pass at %d", n)
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

// skipBlocks reads n blocks from seq, failing if the pass ends first.
func skipBlocks(t *testing.T, seq *TailSeq, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := seq.Next(); !ok {
			t.Fatalf("pass ended early at block %d", i)
		}
	}
}

// drainClean reads a pass to exhaustion, failing the test on a pass
// error.
func drainClean(t *testing.T, seq *TailSeq) []program.BlockID {
	t.Helper()
	out := drainTail(seq)
	if err := seq.Err(); err != nil {
		t.Fatalf("pass failed: %v", err)
	}
	return out
}

func mustCollect(t *testing.T, src blockseq.Source) []program.BlockID {
	t.Helper()
	out, err := blockseq.Collect(src)
	if err != nil {
		t.Fatalf("pass failed: %v", err)
	}
	return out
}

func requireEqual(t *testing.T, want, got []program.BlockID, format string, args ...any) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf(format+": %d blocks vs %d", append(args, len(got), len(want))...)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf(format+": block %d is %d, want %d", append(args, i, got[i], want[i])...)
		}
	}
}
