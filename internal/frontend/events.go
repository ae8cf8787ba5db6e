package frontend

import (
	"sync"

	"ripple/internal/blockseq"
	"ripple/internal/opt"
	"ripple/internal/program"
)

// DemandEvents exposes the coalesced demand instruction-line stream of a
// block source as a replayable opt.EventSource — the streaming twin of
// DemandLines, yielding the identical sequence without materializing it.
// Each Open starts a fresh pass over the underlying (replayable) source.
func DemandEvents(prog *program.Program, src blockseq.Source) opt.EventSource {
	return &demandEvents{prog: prog, src: src}
}

type demandEvents struct {
	prog *program.Program
	src  blockseq.Source
}

// Open implements opt.EventSource.
func (d *demandEvents) Open() opt.EventSeq {
	return &demandSeq{prog: d.prog, seq: d.src.Open(), last: ^uint64(0)}
}

// LenHint sizes for the typical ~1.5 lines per block when the block count
// is known. Per the opt.LenHinter contract this is a capacity hint only.
func (d *demandEvents) LenHint() (int, bool) {
	if n, ok := blockseq.LenHint(d.src); ok {
		return n * 3 / 2, true
	}
	return 0, false
}

type demandSeq struct {
	prog  *program.Program
	seq   blockseq.Seq
	buf   [16]uint64
	lines []uint64
	i     int
	last  uint64
}

func (q *demandSeq) Next() (opt.Event, bool) {
	for {
		// Coalescing state (last) persists across blocks, exactly as in
		// DemandLinesSeq: sequential fetch stays within a line without
		// re-probing the cache.
		for q.i < len(q.lines) {
			l := q.lines[q.i]
			q.i++
			if l == q.last {
				continue
			}
			q.last = l
			return opt.Event{Line: l}, true
		}
		bid, ok := q.seq.Next()
		if !ok {
			return opt.Event{}, false
		}
		q.lines = q.prog.Block(bid).Lines(q.buf[:0])
		q.i = 0
	}
}

func (q *demandSeq) Err() error { return q.seq.Err() }

const (
	// accessEventBatch is the producer's event batch size; accessEventDepth
	// the channel depth. Together they bound the producer's run-ahead.
	accessEventBatch = 2048
	accessEventDepth = 4
)

// AccessEvents exposes the full demand+prefetch access stream of a
// configured frontend run as a replayable opt.EventSource: each Open
// re-runs the (deterministic) simulation with fresh policy/prefetcher
// state from newOpts and streams exactly the post-warmup demand accesses
// and prefetch probes the run's L1I counts, batched through a bounded
// channel from a producing goroutine. This is what lets the oracle
// engines replay a simulated access stream twice without ever holding it
// in memory.
//
// newOpts must return an equivalent, freshly-stateful Options on every
// call (a shared Policy instance would carry state across passes and
// break replayability — the engine detects that and reports
// opt.ErrNotReplayable). The event hooks are overridden by the source
// itself.
//
// Abandoning a pass without draining it requires calling Stop (the
// returned sequences implement opt.EventStopper); the oracle engine does
// this on their error paths.
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

type accessBatch struct {
	ev   []opt.Event
	err  error
	last bool
}

// Open implements opt.EventSource.
func (a *accessEvents) Open() opt.EventSeq {
	q := &accessSeq{
		ch:   make(chan accessBatch, accessEventDepth),
		quit: make(chan struct{}),
	}
	go a.produce(q)
	return q
}

// Warmup handling modes for the producer: the simulator excludes warmup
// events from the recorded stream only if the warmup boundary is actually
// crossed (shorter traces keep everything), so the producer must mirror
// snapshotWarm's truncation semantics exactly.
const (
	warmOff     = iota // emit everything
	warmDiscard        // boundary guaranteed (exact block count known): drop pre-boundary events
	warmBuffer         // boundary unknown: buffer, then drop or flush
)

func (a *accessEvents) produce(q *accessSeq) {
	defer close(q.ch)
	aborted := false
	send := func(b accessBatch) {
		if aborted {
			return
		}
		select {
		case q.ch <- b:
		case <-q.quit:
			aborted = true
		}
	}

	opts, err := a.newOpts()
	if err != nil {
		send(accessBatch{err: err, last: true})
		return
	}

	batch := make([]opt.Event, 0, accessEventBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		send(accessBatch{ev: batch})
		batch = make([]opt.Event, 0, accessEventBatch)
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

	opts.onEvent = func(e opt.Event) {
		if aborted {
			return
		}
		switch warmMode {
		case warmDiscard:
			return
		case warmBuffer:
			warm = append(warm, e)
			return
		}
		batch = append(batch, e)
		if len(batch) >= accessEventBatch {
			flush()
		}
	}
	opts.onWarmupEnd = func() {
		warmMode = warmOff
		warm = nil
	}

	_, err = Run(a.p, a.prog, a.src, opts)
	if err == nil && warmMode == warmBuffer {
		// The trace ended inside the warmup window: nothing was
		// truncated, so the buffered prefix is the whole stream.
		for _, e := range warm {
			batch = append(batch, e)
			if len(batch) >= accessEventBatch {
				flush()
			}
		}
	}
	flush()
	send(accessBatch{err: err, last: true})
}

type accessSeq struct {
	ch   chan accessBatch
	quit chan struct{}
	stop sync.Once

	cur  accessBatch
	i    int
	err  error
	done bool
}

func (q *accessSeq) Next() (opt.Event, bool) {
	for {
		if q.i < len(q.cur.ev) {
			e := q.cur.ev[q.i]
			q.i++
			return e, true
		}
		if q.done {
			return opt.Event{}, false
		}
		b, ok := <-q.ch
		if !ok {
			q.done = true
			return opt.Event{}, false
		}
		q.cur, q.i = b, 0
		if b.err != nil {
			q.err = b.err
			q.done = true
			return opt.Event{}, false
		}
		if b.last {
			q.done = true
		}
	}
}

func (q *accessSeq) Err() error { return q.err }

// Stop implements opt.EventStopper: it releases the producing goroutine
// of an abandoned pass (the underlying simulation still runs to
// completion, discarding its output, but nothing blocks).
func (q *accessSeq) Stop() {
	q.stop.Do(func() { close(q.quit) })
}
