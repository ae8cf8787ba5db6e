package opt

import "errors"

// EventSource is a replayable stream of access events — the oracle-layer
// mirror of blockseq.Source. Every call of Events runs one independent
// pass on the caller's goroutine, handing each event to yield in order,
// and every pass yields the identical event sequence; the streaming
// engines rely on that to run their two passes (next-use indexing, then
// the policy replay) without ever materializing the stream. A pass stops
// early when yield returns false. Events returns what ended the pass: nil
// after a clean end or an early stop, else the error that cut it short.
type EventSource interface {
	Events(yield func(Event) bool) error
}

// LenHinter is optionally implemented by sources that know (or can
// estimate) their event count up front; the engines use it to pre-size
// their per-position index arrays. The hint is a capacity hint, not a
// contract: passes may yield more or fewer events.
type LenHinter interface {
	LenHint() (int, bool)
}

// LenHint reads a source's event-count hint if it offers one.
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

// Events implements EventSource.
func (s SliceEvents) Events(yield func(Event) bool) error {
	for _, e := range s {
		if !yield(e) {
			break
		}
	}
	return nil
}

// LenHint implements LenHinter exactly.
func (s SliceEvents) LenHint() (int, bool) { return len(s), true }

// LineEvents adapts a demand line stream ([]uint64, as produced by
// frontend.DemandLines) to the source contract without copying it into
// []Event — every event is a demand access to the line at its position.
type LineEvents []uint64

// Events implements EventSource.
func (s LineEvents) Events(yield func(Event) bool) error {
	for _, l := range s {
		if !yield(Event{Line: l}) {
			break
		}
	}
	return nil
}

// LenHint implements LenHinter exactly.
func (s LineEvents) LenHint() (int, bool) { return len(s), true }
