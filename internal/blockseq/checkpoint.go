package blockseq

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ripple/internal/program"
)

// Mark is an opaque, serializable snapshot of a pass's position and
// replay state, produced by Checkpointer.Checkpoint. A mark is only
// meaningful to passes opened from the same (or an equivalent) Source;
// implementations validate what they can and reject marks they cannot
// parse rather than replaying from a corrupt position.
type Mark []byte

// Checkpointer is implemented by passes (Seqs) that can snapshot their
// replay state and fast-forward a fresh pass to it. Checkpoint returns a
// mark for the current position: a pass restored from that mark yields
// exactly the blocks the checkpointed pass had left, byte-identically.
// Restore may be called on a freshly opened pass of the same Source.
//
// The live-trace tail (internal/watch) implements it, so a restarted
// watcher resumes a growing trace where it left off instead of
// re-reading it from the start. Threshold tuning uses it to generate a
// shared warmup prefix once: decode to the split point, checkpoint, and
// restore per run instead of regenerating the prefix every time.
type Checkpointer interface {
	Checkpoint() (Mark, error)
	Restore(Mark) error
}

// ErrNoCheckpoint reports a pass that cannot snapshot its state —
// typically a wrapper (Limit) whose inner pass lacks the capability,
// discovered only at call time. Callers fall back to full replay.
var ErrNoCheckpoint = errors.New("blockseq: pass does not support checkpoints")

// markInt encodes a single non-negative integer as a Mark (the common
// "position only" checkpoint).
func markInt(n int) Mark {
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(n))
	return Mark(buf[:k])
}

// unmarkInt decodes a markInt-encoded Mark, rejecting trailing garbage.
func unmarkInt(m Mark) (int, error) {
	v, k := binary.Uvarint(m)
	if k <= 0 || k != len(m) {
		return 0, fmt.Errorf("blockseq: malformed position mark (%d bytes)", len(m))
	}
	return int(v), nil
}

// errSeq is an already-failed pass: no blocks, a fixed error.
type errSeq struct{ err error }

func (s errSeq) Next() (program.BlockID, bool) { return 0, false }
func (s errSeq) Err() error                    { return s.err }

// Resume returns a source whose every pass is a pass of src
// fast-forwarded to mark: Open opens src and restores the mark, so the
// pass yields exactly the suffix the checkpointed pass had left. Passes
// of sources that do not support checkpointing fail with a deferred
// error.
func Resume(src Source, mark Mark) Source {
	return resumeSource{src: src, mark: mark}
}

type resumeSource struct {
	src  Source
	mark Mark
}

func (r resumeSource) Open() Seq {
	seq := r.src.Open()
	cp, ok := seq.(Checkpointer)
	if !ok {
		return errSeq{err: fmt.Errorf("%w: cannot resume", ErrNoCheckpoint)}
	}
	if err := cp.Restore(r.mark); err != nil {
		return errSeq{err: fmt.Errorf("blockseq: restoring mark: %w", err)}
	}
	return seq
}

// Concat chains sources into one stream: a pass yields every block of
// each source in order, stopping at the first source whose pass fails.
func Concat(srcs ...Source) Source { return concatSource(srcs) }

type concatSource []Source

func (c concatSource) Open() Seq { return &concatSeq{srcs: c} }

// LenHint sums the parts' hints; unknown if any part is unknown.
func (c concatSource) LenHint() (int, bool) {
	total := 0
	for _, src := range c {
		n, ok := LenHint(src)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

type concatSeq struct {
	srcs []Source
	i    int
	cur  Seq
	err  error
}

func (s *concatSeq) Next() (program.BlockID, bool) {
	if s.err != nil {
		return 0, false
	}
	for {
		if s.cur == nil {
			if s.i >= len(s.srcs) {
				return 0, false
			}
			s.cur = s.srcs[s.i].Open()
			s.i++
		}
		bid, ok := s.cur.Next()
		if ok {
			return bid, true
		}
		if err := s.cur.Err(); err != nil {
			s.err = err
			return 0, false
		}
		s.cur = nil
	}
}

func (s *concatSeq) Err() error { return s.err }
