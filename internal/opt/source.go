package opt

import "errors"

// EventSource is a replayable stream of access events — the oracle-layer
// mirror of blockseq.Source. Every Open starts an independent pass that
// yields the identical event sequence; the streaming engines rely on that
// to run their two passes (next-use indexing, then the policy replay)
// without ever materializing the stream.
type EventSource interface {
	Open() EventSeq
}

// EventSeq is one pass over an event stream. Next returns the next event
// until the stream ends; Err reports what terminated the pass (nil after
// a clean end) and must be checked once Next returns !ok.
type EventSeq interface {
	Next() (Event, bool)
	Err() error
}

// LenHinter is optionally implemented by sources that know (or can
// estimate) their event count up front; the engines use it to pre-size
// their per-position index arrays. The hint is a capacity hint, not a
// contract: passes may yield more or fewer events.
type LenHinter interface {
	LenHint() (int, bool)
}

// EventStopper is optionally implemented by passes that hold resources —
// a producing goroutine, a decoder. Consumers that abandon a pass before
// draining it must call Stop; fully drained passes need no Stop.
type EventStopper interface {
	Stop()
}

// stopSeq releases an abandoned pass if it supports early termination.
func stopSeq(seq EventSeq) {
	if s, ok := seq.(EventStopper); ok {
		s.Stop()
	}
}

// lenHint reads a source's event-count hint if it offers one.
func LenHint(src EventSource) (int, bool) {
	if h, ok := src.(LenHinter); ok {
		return h.LenHint()
	}
	return 0, false
}

// ErrStreamTooLong reports an event stream that exceeds the int32
// stream-position space of the exact engine (2^31-1 events). Positions —
// entry.last, Eviction.LastUse/At, the next-use indexes, the accuracy
// Oracle — are int32 throughout; before this guard, longer traces wrapped
// silently into negative positions.
var ErrStreamTooLong = errors.New("opt: event stream exceeds int32 position space (2^31-1 events)")

// maxStreamEvents is the exact engine's position-space bound. It is a
// variable only so the overflow boundary is testable without a 2^31-event
// stream.
var maxStreamEvents = int(1<<31 - 1)

// SliceEvents adapts a materialized event slice to the source contract;
// the slice-in APIs (Simulate, BuildOracle) are thin wrappers over it.
type SliceEvents []Event

// Open implements EventSource.
func (s SliceEvents) Open() EventSeq { return &sliceSeq{ev: s} }

// LenHint implements LenHinter exactly.
func (s SliceEvents) LenHint() (int, bool) { return len(s), true }

type sliceSeq struct {
	ev []Event
	i  int
}

func (q *sliceSeq) Next() (Event, bool) {
	if q.i >= len(q.ev) {
		return Event{}, false
	}
	e := q.ev[q.i]
	q.i++
	return e, true
}

func (q *sliceSeq) Err() error { return nil }

// LineEvents adapts a demand line stream ([]uint64, as produced by
// frontend.DemandLines) to the source contract without copying it into
// []Event — every event is a demand access to the line at its position.
type LineEvents []uint64

// Open implements EventSource.
func (s LineEvents) Open() EventSeq { return &lineSeq{lines: s} }

// LenHint implements LenHinter exactly.
func (s LineEvents) LenHint() (int, bool) { return len(s), true }

type lineSeq struct {
	lines []uint64
	i     int
}

func (q *lineSeq) Next() (Event, bool) {
	if q.i >= len(q.lines) {
		return Event{}, false
	}
	e := Event{Line: q.lines[q.i]}
	q.i++
	return e, true
}

func (q *lineSeq) Err() error { return nil }
