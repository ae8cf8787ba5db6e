package frontend

import (
	"ripple/internal/blockseq"
	"ripple/internal/opt"
	"ripple/internal/program"
)

// DemandEvents exposes the coalesced demand instruction-line stream of a
// block source as a replayable opt.EventSource — the streaming twin of
// DemandLines, yielding the identical sequence without materializing it.
// Each Events call runs a fresh pass over the underlying (replayable)
// source.
func DemandEvents(prog *program.Program, src blockseq.Source) opt.EventSource {
	return &demandEvents{prog: prog, src: src}
}

type demandEvents struct {
	prog *program.Program
	src  blockseq.Source
}

// Events implements opt.EventSource.
func (d *demandEvents) Events(yield func(opt.Event) bool) error {
	return demandWalk(d.prog, d.src.Open(), func(l uint64, _ int32) bool {
		return yield(opt.Event{Line: l})
	})
}

// LenHint sizes for the typical ~1.5 lines per block when the block count
// is known. Per the opt.LenHinter contract this is a capacity hint only.
func (d *demandEvents) LenHint() (int, bool) {
	if n, ok := blockseq.LenHint(d.src); ok {
		return n * 3 / 2, true
	}
	return 0, false
}

// AccessEvents exposes the full demand+prefetch access stream of a
// configured frontend run as a replayable opt.EventSource: each Events
// call re-runs the (deterministic) simulation on the caller's goroutine
// with fresh policy/prefetcher state from newOpts and yields exactly the
// post-warmup demand accesses and prefetch probes the run's L1I counts.
// This is what lets the oracle engines replay a simulated access stream
// twice without ever holding it in memory.
//
// newOpts must return an equivalent, freshly-stateful Options on every
// call. The stream is every demand access and prefetch probe, hit or
// miss, so a Policy shared across passes changes it only through the
// misses a miss-trained prefetcher (TIFS) learns from; a shared
// Prefetcher changes it outright. The oracle engines report
// opt.ErrNotReplayable only when a pass's event count differs from the
// first pass's. The event hooks are overridden by the source itself.
//
// When yield stops a pass early, the simulation still runs to the end of
// the trace and drops the rest of its events; Events then returns the
// run's error, if any.
func AccessEvents(p Params, prog *program.Program, src blockseq.Source, newOpts func() (Options, error)) opt.EventSource {
	return &accessEvents{p: p, prog: prog, src: src, newOpts: newOpts}
}

type accessEvents struct {
	p       Params
	prog    *program.Program
	src     blockseq.Source
	newOpts func() (Options, error)
}

// LenHint estimates ~2 events per block (demand lines plus prefetch
// traffic) when the block count is known; a capacity hint only.
func (a *accessEvents) LenHint() (int, bool) {
	if n, ok := blockseq.LenHint(a.src); ok {
		return n * 2, true
	}
	return 0, false
}

// Warmup handling modes of a pass: the simulator excludes warmup events
// from the recorded stream only if the warmup boundary is actually
// crossed (shorter traces keep everything), so a pass must mirror
// snapshotWarm's truncation semantics exactly.
const (
	warmOff     = iota // yield everything
	warmDiscard        // boundary guaranteed (exact block count known): drop pre-boundary events
	warmBuffer         // boundary unknown: buffer, then drop or yield
)

// Events implements opt.EventSource.
func (a *accessEvents) Events(yield func(opt.Event) bool) error {
	opts, err := a.newOpts()
	if err != nil {
		return err
	}

	warmMode := warmOff
	if opts.WarmupBlocks > 0 {
		warmMode = warmBuffer
		if n, ok := blockseq.LenHint(a.src); ok {
			// blockseq.Counter hints are exact, so the boundary outcome
			// is known up front and no buffering is ever needed.
			if n > opts.WarmupBlocks {
				warmMode = warmDiscard
			} else {
				warmMode = warmOff
			}
		}
	}
	var warm []opt.Event
	stopped := false
	opts.onEvent = func(e opt.Event) {
		switch {
		case warmMode == warmBuffer:
			warm = append(warm, e)
		case warmMode == warmOff && !stopped:
			stopped = !yield(e)
		}
	}
	opts.onWarmupEnd = func() {
		warmMode = warmOff
		warm = nil
	}

	if _, err := Run(a.p, a.prog, a.src, opts); err != nil {
		return err
	}
	// Still buffering: the trace ended inside the warmup window, nothing
	// was truncated, and the buffered prefix is the whole stream.
	for _, e := range warm {
		if !yield(e) {
			break
		}
	}
	return nil
}
