// Package blockseq defines the streaming block-source abstraction the
// whole pipeline consumes: a replayable, pull-style iterator over basic
// block executions.
//
// The contract has two halves:
//
//   - Seq is one pass over a block stream. Next returns blocks until the
//     stream is exhausted (or fails); after Next returns false, Err
//     reports whether the pass ended cleanly (nil) or on a decode/IO
//     error.
//   - Source is the replayable handle: Open starts a fresh pass. A Source
//     MUST be replayable — every Open yields the byte-identical block
//     sequence — because multi-pass consumers (the Belady/Demand-MIN
//     oracles, MeasureAccuracy, analyze-then-tune) re-open it instead of
//     materializing the trace. Deterministic replay is also what keeps
//     content-addressed result-store signatures valid.
//
// Streaming sources (workload walkers, PT decoders) hold O(1) state per
// open pass, so consumers built on Seq run in O(1) memory regardless of
// trace length.
package blockseq

import "ripple/internal/program"

// Seq is a single pass over a block stream: a pull iterator.
type Seq interface {
	// Next returns the next block execution. ok=false means the pass is
	// over; check Err to distinguish clean exhaustion from failure.
	Next() (bid program.BlockID, ok bool)
	// Err returns the first error encountered by this pass, or nil.
	// It is only meaningful once Next has returned false.
	Err() error
}

// Source is a replayable stream of block executions. Open starts a fresh
// pass; every pass over the same Source must replay the identical block
// sequence.
type Source interface {
	Open() Seq
}

// Counter is implemented by sources that know (or can cheaply bound)
// their length without a full pass, e.g. slices and encoded trace files
// whose header declares the block count.
type Counter interface {
	// LenHint returns the exact number of blocks a pass will yield, and
	// whether that number is known.
	LenHint() (n int, ok bool)
}

// LenHint returns src's declared length if it implements Counter.
func LenHint(src Source) (int, bool) {
	if c, ok := src.(Counter); ok {
		return c.LenHint()
	}
	return 0, false
}

// SliceSource adapts a materialized trace to the Source interface. It is
// the compatibility bridge: every legacy call site holding a
// []program.BlockID wraps it in a SliceSource at zero cost.
type SliceSource []program.BlockID

// Open starts a pass over the slice.
func (s SliceSource) Open() Seq { return &sliceSeq{s: s} }

// LenHint reports the exact slice length.
func (s SliceSource) LenHint() (int, bool) { return len(s), true }

type sliceSeq struct {
	s SliceSource
	i int
}

func (it *sliceSeq) Next() (program.BlockID, bool) {
	if it.i >= len(it.s) {
		return 0, false
	}
	bid := it.s[it.i]
	it.i++
	return bid, true
}

func (it *sliceSeq) Err() error { return nil }

// Of builds a SliceSource from literal blocks (test convenience).
func Of(blocks ...program.BlockID) SliceSource { return SliceSource(blocks) }

// Func adapts an open function to the Source interface.
type Func func() Seq

// Open starts a pass by calling the function.
func (f Func) Open() Seq { return f() }

// maxCapHint bounds hint-driven pre-allocation. LenHint is exact for
// well-formed inputs, but a file source reads it from the stream header
// before a single block has been validated — a corrupt or hostile header
// can declare 2^60 blocks. Consumers that pre-size buffers from a hint
// must clamp it; past this bound append's amortized growth takes over.
const maxCapHint = 1 << 20

// CapHint returns a safe pre-allocation capacity for one pass of src:
// the source's LenHint when known, clamped to an allocation sanity
// bound, or fallback when the length is unknown or nonsensical.
func CapHint(src Source, fallback int) int {
	if n, ok := LenHint(src); ok && n > 0 {
		return min(n, maxCapHint)
	}
	return fallback
}

// Collect drains one pass of src into a slice. It is the inverse of
// SliceSource: use it only where a consumer genuinely needs the whole
// trace in memory (encoders, oracle event buffers).
func Collect(src Source) ([]program.BlockID, error) {
	out := make([]program.BlockID, 0, CapHint(src, 1024))
	seq := src.Open()
	for {
		bid, ok := seq.Next()
		if !ok {
			return out, seq.Err()
		}
		out = append(out, bid)
	}
}

// Limit caps every pass of src at max blocks. A non-positive max yields
// an empty source.
func Limit(src Source, max int) Source {
	return limitSource{src: src, max: max}
}

type limitSource struct {
	src Source
	max int
}

func (l limitSource) Open() Seq { return &limitSeq{seq: l.src.Open(), left: l.max} }

func (l limitSource) LenHint() (int, bool) {
	n, ok := LenHint(l.src)
	if !ok {
		return 0, false
	}
	if n > l.max {
		n = l.max
	}
	if n < 0 {
		n = 0
	}
	return n, true
}

type limitSeq struct {
	seq  Seq
	left int
}

func (it *limitSeq) Next() (program.BlockID, bool) {
	if it.left <= 0 {
		return 0, false
	}
	bid, ok := it.seq.Next()
	if !ok {
		it.left = 0
		return 0, false
	}
	it.left--
	return bid, true
}

func (it *limitSeq) Err() error { return it.seq.Err() }
