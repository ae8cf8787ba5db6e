package blockseq_test

import (
	"errors"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/program"
)

// The package's own sources prove the contract through the shared
// conformance kit (an external test package, since the kit imports
// blockseq).

func TestSliceSourceConformance(t *testing.T) {
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return blockseq.Of(3, 1, 4, 1, 5, 9, 2, 6)
	})
}

func TestEmptySliceSourceConformance(t *testing.T) {
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return blockseq.Of()
	})
}

func TestLimitSourceConformance(t *testing.T) {
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return blockseq.Limit(blockseq.Of(3, 1, 4, 1, 5, 9), 4)
	})
}

func TestSliceSourceCheckpointConformance(t *testing.T) {
	blockseqtest.TestSourceCheckpoint(t, func(*testing.T) blockseq.Source {
		return blockseq.Of(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
	})
	blockseqtest.TestSourceCheckpointDisk(t, func(*testing.T) blockseq.Source {
		return blockseq.Of(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
	})
}

func TestLimitSourceCheckpointConformance(t *testing.T) {
	blockseqtest.TestSourceCheckpoint(t, func(*testing.T) blockseq.Source {
		return blockseq.Limit(blockseq.Of(3, 1, 4, 1, 5, 9, 2, 6, 5, 3), 7)
	})
}

// A Limit over a pass with no checkpoint capability must refuse, not
// lie: the sentinel error is what warmupSource probes for.
func TestLimitWithoutCapabilities(t *testing.T) {
	src := blockseq.Limit(blockseq.Func(func() blockseq.Seq {
		return blockseqtest.OpaqueSource{Src: blockseq.Of(1, 2, 3)}.Open()
	}), 2)
	seq := src.Open()
	if _, err := seq.(blockseq.Checkpointer).Checkpoint(); !errors.Is(err, blockseq.ErrNoCheckpoint) {
		t.Fatalf("Checkpoint over an opaque inner pass: %v, want ErrNoCheckpoint", err)
	}
	if err := seq.(blockseq.Checkpointer).Restore(blockseq.Mark{0}); !errors.Is(err, blockseq.ErrNoCheckpoint) {
		t.Fatalf("Restore over an opaque inner pass: %v, want ErrNoCheckpoint", err)
	}
	// The probing must not have disturbed the pass.
	got, err := blockseq.Collect(blockseq.Func(func() blockseq.Seq { return seq }))
	if err != nil || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("pass after rejected capability calls: %v, %v", got, err)
	}
}

var errTruncated = errors.New("truncated mid-stream")

// failingSeq yields three blocks, then fails.
type failingSeq struct{ n int }

func (s *failingSeq) Next() (program.BlockID, bool) {
	if s.n >= 3 {
		return 0, false
	}
	s.n++
	return program.BlockID(s.n), true
}

func (s *failingSeq) Err() error {
	if s.n >= 3 {
		return errTruncated
	}
	return nil
}

func TestFuncSourceErrorConformance(t *testing.T) {
	blockseqtest.TestSourceError(t, func(*testing.T) blockseq.Source {
		return blockseq.Func(func() blockseq.Seq { return &failingSeq{} })
	})
}

// TestSliceSourceFaultConformance: an injected fault must surface from
// the faulted pass only, leaving fresh replays pristine.
func TestSliceSourceFaultConformance(t *testing.T) {
	blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
		return blockseq.Of(3, 1, 4, 1, 5, 9, 2, 6)
	})
}
