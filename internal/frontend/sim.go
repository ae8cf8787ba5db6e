package frontend

import (
	"fmt"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
)

// HintMode selects how injected Ripple hints are executed.
type HintMode int

const (
	// HintInvalidate drops the victim line from the L1I (the proposed
	// `invalidate` instruction, cldemote-like).
	HintInvalidate HintMode = iota
	// HintDemote moves the victim to the most-replaceable position
	// instead (Sec. IV, "invalidation vs. reducing LRU priority").
	HintDemote
)

// Options configures one simulation run.
type Options struct {
	// Policy is the L1I replacement policy instance (fresh per run).
	Policy cache.Policy
	// Prefetcher drives instruction prefetching (fresh per run).
	Prefetcher prefetch.Prefetcher
	// Hints selects invalidate vs. demote execution of injected hints.
	Hints HintMode
	// MeasureAccuracy scores every replacement decision against the
	// Belady next-use oracle (costs one pass over the trace up front).
	MeasureAccuracy bool
	// WarmupBlocks executes the first N trace blocks to warm the caches
	// and predictors but excludes them from every reported statistic —
	// the steady-state methodology of the paper's trace collection. A
	// warmup at least as long as the trace is ignored (full-trace stats).
	WarmupBlocks int
	// Injections, when non-nil, simulates an injection plan (cue block ->
	// victim lines) on the unmodified program: the run is the run of
	// program.WithInjectionsPreservingLayout(Injections), without building
	// that copy. As there, JIT and kernel cue blocks and empty victim
	// lists are skipped, and a listed block's hints replace its own. A cue
	// block outside the program, or one whose own injections occupy code
	// bytes, makes Run fail.
	Injections map[program.BlockID][]uint64

	// onEvent, when set, observes every demand/prefetch event as it is
	// issued (warmup included; AccessEvents resolves the boundary via
	// onWarmupEnd). Unexported: only AccessEvents wires these hooks.
	onEvent func(opt.Event)
	// onWarmupEnd fires once when the warmup boundary is crossed.
	onWarmupEnd func()
}

// Result is everything one run measures.
type Result struct {
	Program    string
	Policy     string
	Prefetcher string

	Blocks      uint64 // committed basic blocks
	Instrs      uint64 // dynamic instructions, including injected hints
	HintInstrs  uint64 // dynamic injected hint instructions
	Cycles      uint64
	StallCycles uint64
	// LateMisses counts demand accesses that found their line still in
	// flight from a prefetch: the data had not arrived, so they stall for
	// the remaining latency and count as misses (MSHR hits in hardware).
	LateMisses uint64

	L1I cache.Stats
	// Compulsory counts first-touch demand misses (cold lines).
	Compulsory uint64
	// L2Hits/L3Hits/MemFills break down where demand L1I misses were
	// served.
	L2Hits, L3Hits, MemFills uint64

	// Accuracy accounting (MeasureAccuracy only): policy-made eviction
	// decisions and Ripple hint decisions scored against Belady.
	PolicyEvictions uint64
	PolicyOptimal   uint64
	HintEvictions   uint64
	HintOptimal     uint64

	// BranchMPKI is control-flow mispredictions per kilo-instruction
	// (FDIP runs only; 0 otherwise).
	BranchMPKI float64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// MPKI returns L1I demand misses per kilo-instruction. Late prefetches
// (line still in flight when demanded) count as misses, as in hardware.
func (r Result) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.L1I.DemandMisses+r.LateMisses) / float64(r.Instrs) * 1000
}

// Coverage returns the fraction of replacement decisions initiated by
// Ripple hints.
func (r Result) Coverage() float64 { return r.L1I.Coverage() }

// HintAccuracy returns the fraction of effective Ripple hints whose victim
// was a Belady-consistent choice (Fig. 10).
func (r Result) HintAccuracy() float64 {
	if r.HintEvictions == 0 {
		return 0
	}
	return float64(r.HintOptimal) / float64(r.HintEvictions)
}

// PolicyAccuracy returns the Belady-consistency of the underlying
// policy's own victim choices (the paper reports 77.8% for LRU).
func (r Result) PolicyAccuracy() float64 {
	if r.PolicyEvictions == 0 {
		return 0
	}
	return float64(r.PolicyOptimal) / float64(r.PolicyEvictions)
}

// CombinedAccuracy returns the accuracy over all replacement decisions
// (Ripple hints + policy evictions), the paper's "overall" number.
func (r Result) CombinedAccuracy() float64 {
	tot := r.HintEvictions + r.PolicyEvictions
	if tot == 0 {
		return 0
	}
	return float64(r.HintOptimal+r.PolicyOptimal) / float64(tot)
}

// IdealCycles returns the cycle count of the same run with a perfect
// I-cache (no instruction-miss stalls) — the Fig. 1 limit.
func IdealCycles(p Params, instrs uint64) uint64 {
	return uint64(float64(instrs) * p.BaseCPI)
}

// Speedup returns the percentage speedup of r over a baseline run.
func Speedup(baseline, r Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return (float64(baseline.Cycles)/float64(r.Cycles) - 1) * 100
}

// predicting is implemented by prefetchers driven by a branch predictor
// (FDIP, live or replayed from a tape); a run's BranchMPKI comes from it.
type predicting interface {
	// Mispredicts returns the control-flow mispredictions over the blocks
	// retired so far. A tape replay also fails here when those blocks are
	// not the stream its tape was recorded over; it cannot tell a short
	// stream from one still running, so the error is final only once the
	// last block has retired.
	Mispredicts() (uint64, error)
}

// sim bundles one run's mutable state.
type sim struct {
	p    Params
	prog *program.Program
	opts Options
	l1i  *cache.Cache
	// out holds the L2/L3, the prefetch buffer and the per-line tables:
	// which lines were demand-missed (compulsory misses), and the cycle
	// each in-flight prefetched line's data arrives. A demand access
	// before that cycle is a late prefetch: it stalls for the remainder
	// and counts as a miss.
	out    *outer
	res    *Result
	oracle *opt.Oracle
	pos    int32 // current demand-stream position (oracle time)
	// hints is the per-block hint table of opts.Injections (nil without).
	hints [][]uint64

	// cycleF is the running cycle clock; prefetch timeliness is judged
	// against it.
	cycleF float64
	// missObs is the prefetcher's miss-feedback hook, if it has one
	// (temporal record/replay designs train on the miss stream).
	missObs prefetch.MissObserver
	// warmSnap holds the counter snapshot taken at the end of warmup, and
	// warmMispredicts the branch predictor's mispredictions by then.
	warmSnap        *Result
	warmMispredicts uint64
}

// Run simulates the block stream through the configured frontend and
// returns the measurements. The source may be replayed with a rewritten
// (injected) program: block IDs are stable across injection. Run holds
// O(1) state beyond the caches: a streaming source (workload walker, PT
// decoder) is consumed without ever materializing the trace.
// MeasureAccuracy re-opens the source for the oracle pre-pass, relying on
// the Source replayability contract.
//
// The L1I and its policy are built per run. The L2 and L3 hold the whole
// program text (10 MiB of L3 holds any of these binaries), modeling the
// steady-state server the paper traces: after hours of uptime every text
// line has long been resident beyond L1, and charging one-time 260-cycle
// compulsory fills against a short simulation window would distort every
// comparison. They are borrowed from a free list shared by all runs and
// rolled back when the run returns (see outer); the L2 comes prewarmed,
// and the L3 is built and prewarmed the first time an L2 miss reaches
// it, so a run whose text fits the L2 never pays for one. No result can
// tell either from a fresh hierarchy.
func Run(p Params, prog *program.Program, src blockseq.Source, opts Options) (Result, error) {
	if opts.Policy == nil {
		opts.Policy = replacement.NewLRU()
	}
	if opts.Prefetcher == nil {
		opts.Prefetcher = prefetch.None{}
	}
	l1i, err := cache.New(p.L1I, opts.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("frontend: L1I: %w", err)
	}
	if err := p.L2.Validate(); err != nil {
		return Result{}, fmt.Errorf("frontend: L2: %w", err)
	}
	if err := p.L3.Validate(); err != nil {
		return Result{}, fmt.Errorf("frontend: L3: %w", err)
	}
	out := acquire(p, prog)
	defer out.release()
	l1i.Index(out.first, out.ways)
	hints, err := out.hintTable(prog, opts.Injections)
	if err != nil {
		return Result{}, fmt.Errorf("frontend: %w", err)
	}
	res := Result{
		Program:    prog.Name,
		Policy:     opts.Policy.Name(),
		Prefetcher: opts.Prefetcher.Name(),
	}
	s := &sim{
		p: p, prog: prog, opts: opts,
		l1i: l1i, out: out,
		res:   &res,
		hints: hints,
	}
	if mo, ok := opts.Prefetcher.(prefetch.MissObserver); ok {
		s.missObs = mo
	}
	if opts.MeasureAccuracy {
		o, err := opt.BuildOracleSource(DemandEvents(prog, src), p.L1I)
		if err != nil {
			return Result{}, fmt.Errorf("frontend: oracle pre-pass: %w", err)
		}
		s.oracle = o
	}
	if err := s.run(src); err != nil {
		return Result{}, fmt.Errorf("frontend: %w", err)
	}

	res.Cycles = uint64(s.cycleF)
	res.L1I = s.l1i.Stats
	res.subtract(s.warmSnap)
	if bp, ok := opts.Prefetcher.(predicting); ok {
		missed, err := bp.Mispredicts()
		if err != nil {
			return Result{}, fmt.Errorf("frontend: %w", err)
		}
		if res.Instrs > 0 {
			res.BranchMPKI = float64(missed-s.warmMispredicts) / float64(res.Instrs) * 1000
		}
	}
	return res, nil
}

func (s *sim) run(src blockseq.Source) error {
	lastLine := ^uint64(0)

	// One-block lookahead: the prefetcher's retire hook needs the next
	// block, so the loop always holds the current block plus the peeked
	// successor — the only trace state the simulator keeps.
	seq := src.Open()
	bid, ok := seq.Next()
	for ti := 0; ok; ti++ {
		next, haveNext := seq.Next()
		if ti == s.opts.WarmupBlocks {
			s.snapshotWarm()
		}
		b := s.prog.Block(bid)
		hints := b.Invalidations
		if s.hints != nil && s.hints[bid] != nil {
			hints = s.hints[bid]
		}
		s.res.Blocks++
		s.res.Instrs += uint64(b.Instrs) + uint64(len(hints))

		// Fetch the block's lines (coalescing within-line continuation,
		// matching DemandLines).
		first, end := b.LineRange()
		for l := first; l < end; l++ {
			if l == lastLine {
				continue
			}
			lastLine = l
			s.demandAccess(l)
			s.pos++
		}

		// Execute injected hints (they retire within the block).
		if n := len(hints); n > 0 {
			s.res.HintInstrs += uint64(n)
			for _, victim := range hints {
				s.executeHint(victim)
			}
		}

		// Let the prefetcher observe retirement and run ahead.
		if haveNext {
			if pf := s.opts.Prefetcher.OnBlockRetire(bid, next, s.out.pf[:0]); len(pf) > 0 {
				s.issue(pf)
			}
		}

		// Advance the pipeline clock by the block's base execution time;
		// injected hints are near-free µops charged at HintCPI.
		nh := len(hints)
		s.cycleF += float64(b.Instrs)*s.p.BaseCPI + float64(nh)*s.p.HintCPI

		bid, ok = next, haveNext
	}
	return seq.Err()
}

// snapshotWarm records every counter at the end of warmup so the final
// result reports steady-state deltas only.
func (s *sim) snapshotWarm() {
	snap := *s.res
	snap.Cycles = uint64(s.cycleF)
	snap.L1I = s.l1i.Stats
	s.warmSnap = &snap
	if bp, ok := s.opts.Prefetcher.(predicting); ok {
		// A replay's error is final only at the end of the run.
		s.warmMispredicts, _ = bp.Mispredicts()
	}
	if s.opts.onWarmupEnd != nil {
		s.opts.onWarmupEnd()
	}
}

// subtract removes the warmup-era counts from the result.
func (r *Result) subtract(w *Result) {
	if w == nil {
		return
	}
	r.Blocks -= w.Blocks
	r.Instrs -= w.Instrs
	r.HintInstrs -= w.HintInstrs
	r.Cycles -= w.Cycles
	r.StallCycles -= w.StallCycles
	r.LateMisses -= w.LateMisses
	r.Compulsory -= w.Compulsory
	r.L2Hits -= w.L2Hits
	r.L3Hits -= w.L3Hits
	r.MemFills -= w.MemFills
	r.PolicyEvictions -= w.PolicyEvictions
	r.PolicyOptimal -= w.PolicyOptimal
	r.HintEvictions -= w.HintEvictions
	r.HintOptimal -= w.HintOptimal
	r.L1I = cache.Sub(r.L1I, w.L1I)
}

// stall charges exposed miss latency: the clock advances and the stall is
// accounted.
func (s *sim) stall(cycles float64) {
	s.cycleF += cycles
	s.res.StallCycles += uint64(cycles)
}

// demandAccess performs one demand instruction-line access, charging the
// exposed miss latency.
func (s *sim) demandAccess(l uint64) {
	if s.opts.onEvent != nil {
		s.opts.onEvent(opt.Event{Line: l})
	}
	ai := cache.AccessInfo{Line: l, Sig: l}
	if s.l1i.TryHit(ai) || s.scan(ai, s.pos) {
		if ready := s.out.takeReady(l); ready > s.cycleF {
			// Late prefetch: the line is allocated but its data is
			// still in flight.
			s.res.LateMisses++
			s.stall(ready - s.cycleF)
		}
		return
	}
	if seen := &s.out.seen[l-s.out.first]; !*seen {
		*seen = true
		s.res.Compulsory++
	}
	// Serve the miss from the hierarchy, fully exposed.
	switch {
	case s.out.l2.Access(ai).Hit:
		s.res.L2Hits++
		s.stall(float64(s.p.L2Lat))
	case s.out.llc().Access(ai).Hit:
		s.res.L3Hits++
		s.stall(float64(s.p.L3Lat))
		// L2 was filled by its miss handling in Access above.
	default:
		s.res.MemFills++
		s.stall(float64(s.p.MemLat))
	}
	if s.missObs != nil {
		s.issue(s.missObs.OnDemandMiss(l, s.out.pf[:0]))
	}
}

// issue probes the L1I for each line a prefetcher returned, in order, and
// keeps the buffer for the next call. Most lines are resident, and under
// a policy that does not observe prefetch hits such a probe only counts:
// TryPrefetchHit does that inline. issuePrefetch takes the rest.
func (s *sim) issue(lines []uint64) {
	s.out.pf = lines
	for _, l := range lines {
		if !s.l1i.TryPrefetchHit(l) {
			s.issuePrefetch(l)
		} else if s.opts.onEvent != nil {
			s.opts.onEvent(opt.Event{Line: l, Prefetch: true})
		}
	}
}

// issuePrefetch probes the L1I for a prefetched line that may miss, lie
// outside the L1I's index, or hit under a policy that observes prefetch
// hits, and installs a missing line (via the hierarchy) off the critical
// path.
func (s *sim) issuePrefetch(l uint64) {
	ai := cache.AccessInfo{Line: l, Sig: l, Prefetch: true}
	hit := s.l1i.TryHit(ai) || s.scan(ai, s.pos-1)
	if s.opts.onEvent != nil {
		s.opts.onEvent(opt.Event{Line: l, Prefetch: true})
	}
	if !hit {
		// Pull the line through L2/L3 off the critical path; the data
		// arrives after the level's latency, and a demand access before
		// then is a late prefetch.
		lat := float64(s.p.L2Lat)
		if !s.out.l2.Access(ai).Hit {
			lat = float64(s.p.L3Lat)
			if !s.out.llc().Access(ai).Hit {
				lat = float64(s.p.MemLat)
			}
		}
		s.out.setReady(l, s.cycleF+lat)
	}
}

// scan performs an L1I access that TryHit did not serve (a miss, or a
// line outside the index) by the tag scan, and reports whether it hit. An
// evicted line forfeits its in-flight prefetch, and with MeasureAccuracy
// the eviction is scored at oracle time pos.
func (s *sim) scan(ai cache.AccessInfo, pos int32) bool {
	r := s.l1i.Access(ai)
	if r.EvictedValid {
		s.out.takeReady(r.Evicted)
		if s.oracle != nil {
			s.scoreEviction(r, pos)
		}
	}
	return r.Hit
}

// executeHint runs one injected invalidate/demote for a victim line.
func (s *sim) executeHint(victim uint64) {
	var acted bool
	if s.opts.Hints == HintDemote {
		acted = s.l1i.Demote(victim)
	} else {
		acted = s.l1i.Invalidate(victim)
		if acted {
			s.out.takeReady(victim)
		}
	}
	if acted && s.oracle != nil {
		s.res.HintEvictions++
		if s.oracle.IsAccurateEviction(victim, s.pos-1) {
			s.res.HintOptimal++
		}
	}
}

// scoreEviction scores an eviction decision with the paper's accuracy
// metric: did it introduce a miss the ideal policy would have avoided?
// Demote-path evictions (HintFreed) are attributed to Ripple; the rest to
// the policy.
func (s *sim) scoreEviction(r cache.AccessResult, pos int32) {
	accurate := s.oracle.IsAccurateEviction(r.Evicted, pos)
	if r.HintFreed {
		s.res.HintEvictions++
		if accurate {
			s.res.HintOptimal++
		}
		return
	}
	s.res.PolicyEvictions++
	if accurate {
		s.res.PolicyOptimal++
	}
}
