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
