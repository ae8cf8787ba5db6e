package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

// TuneConfig describes the configuration a plan is tuned for, and so
// every named run: RunPlan, AccessEvents and RunBatch simulate it.
type TuneConfig struct {
	Params frontend.Params
	// Policy names the underlying hardware replacement policy ("lru",
	// "random", ...).
	Policy string
	// Prefetcher names the prefetch configuration ("none", "nlp", "fdip",
	// "tifs").
	Prefetcher string
	// Hints selects invalidate vs. demote execution.
	Hints frontend.HintMode
	// Thresholds to sweep; nil uses DefaultThresholds.
	Thresholds []float64
	// MeasureAccuracy additionally scores coverage-vs-accuracy per
	// threshold (needed for the Fig. 6 curve; slower).
	MeasureAccuracy bool
	// WarmupBlocks excludes the first N trace blocks from every
	// measurement (steady-state methodology).
	WarmupBlocks int
	// ShiftLayout evaluates plans with the naive full-relayout injection
	// instead of padding/NOP placement (see RunPlan).
	ShiftLayout bool
}

// DefaultThresholds is the sweep used when TuneConfig.Thresholds is nil;
// the paper finds per-app optima between 45% and 65%, so the sweep is
// denser there.
func DefaultThresholds() []float64 {
	return []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
}

// ThresholdPoint is one point of the coverage/accuracy/performance
// trade-off curve (Fig. 6).
type ThresholdPoint struct {
	Threshold  float64
	Coverage   float64
	Accuracy   float64
	MPKI       float64
	SpeedupPct float64 // over the uninjected run with the same policy+prefetcher
	Static     int     // injected static instructions
}

// TuneResult is the outcome of a threshold sweep.
type TuneResult struct {
	Baseline frontend.Result
	Curve    []ThresholdPoint
	// Best indexes the winning point in Curve: the highest speedup, with
	// equal speedups resolving to the lowest threshold (see assemble).
	Best     int
	BestPlan *Plan
}

// BestPoint returns the winning curve point.
func (t *TuneResult) BestPoint() ThresholdPoint { return t.Curve[t.Best] }

// ParallelOptions carries the execution substrate of a batch of runs.
type ParallelOptions struct {
	// Pool schedules the batch's runs as independent runner jobs. nil
	// runs them on a private pool of one worker, which, like any batch,
	// runs Workers+1 jobs at once (see runner.Pool.RunAll). A batch may
	// be started from inside a running job on the same pool: it shares
	// the pool's worker budget rather than nesting a second worker set.
	Pool *runner.Pool
	// SourceID is a stable content identity for src (e.g. "workload
	// generator version + app + input + length", or a trace file's
	// content hash). It completes the tuning runs' signatures, so results
	// land in the pool's persistent store and warm reruns — including
	// experiment.Suite runs over the same source and configuration —
	// skip simulation entirely. Leave it empty when the source has no
	// stable identity or will not be asked for again: the runs are then
	// unsigned, so the pool runs each of them and keeps none.
	SourceID string
}

// TuneParallel sweeps the invalidation threshold: each candidate plan is
// applied to the program and simulated on the training trace under the
// configured policy and prefetcher; the plan with the highest speedup
// over the uninjected baseline wins. This is the per-application
// threshold selection of Sec. III-C (the optimum lands in the paper's
// 45-65% band).
//
// The uninjected baseline and one run per candidate threshold go to
// opts.Pool as one RunBatch, so thresholds whose plans inject alike (an
// empty plan is the baseline) share one simulation. With a SourceID each
// run is keyed by its full signature (program fingerprint, plan digest +
// threshold, policy, prefetcher, machine params, warmup, hint mode, and
// the source identity), so equal sweeps coalesce in-process and, with a
// persistent store, warm reruns perform zero simulations. A nil Pool runs the sweep
// on a private one-worker pool, two runs at once, so its FDIP runs may
// run live where a serial sweep would replay a tape; either way the
// result is the same.
//
// Output is byte-identical for any worker count: results are folded in
// sweep order, and Best resolves explicitly (highest speedup, ties to
// the lowest threshold) rather than by completion order.
func TuneParallel(a *Analysis, src blockseq.Source, cfg TuneConfig, opts ParallelOptions) (*TuneResult, error) {
	thresholds := cfg.Thresholds
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: no thresholds to tune over")
	}
	plans := make([]*Plan, len(thresholds))
	runs := []Run{{Config: cfg, Label: fmt.Sprintf("tune %s baseline", a.Prog.Name)}}
	for i, th := range thresholds {
		plans[i] = a.PlanAt(th)
		runs = append(runs, Run{Config: cfg, Plan: plans[i], Label: fmt.Sprintf("tune %s th=%.2f", a.Prog.Name, th)})
	}
	if opts.SourceID != "" {
		progFP, err := a.Prog.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("core: fingerprinting program: %w", err)
		}
		base := fmt.Sprintf("rtune1|prog=%s|src=%s|params=%+v|pol=%s|pf=%s|hints=%d|warmup=%d|shift=%t|acc=%t",
			progFP, opts.SourceID, cfg.Params, cfg.Policy, cfg.Prefetcher, cfg.Hints, cfg.WarmupBlocks, cfg.ShiftLayout, cfg.MeasureAccuracy)
		runs[0].Sig = base + "|plan=none"
		for i, th := range thresholds {
			dg, err := plans[i].Digest()
			if err != nil {
				return nil, fmt.Errorf("core: digesting plan: %w", err)
			}
			runs[i+1].Sig = fmt.Sprintf("%s|th=%g|plan=%s", base, th, dg)
		}
	}
	results, err := RunBatch(a.Prog, src, runs, opts)
	if err != nil {
		return nil, err
	}
	return assembleTune(a, thresholds, plans, results[0], results[1:]), nil
}

// Run is one named simulation of a batch: Config's policy, prefetcher,
// hints, warmup and accuracy scoring over the program with Plan placed in
// it (nil: the uninjected program), as RunPlan simulates it. Sig is the
// run's store signature: every input that can change its result. An
// unsigned run (empty Sig) is never coalesced by signature, memoized or
// stored; within its batch it still shares the simulation of a run that
// simulates alike (see RunBatch). Label names the run in the runner's log.
type Run struct {
	Config     TuneConfig
	Plan       *Plan
	Sig, Label string
}

// RunBatch simulates runs over src, one runner job each on opts.Pool (nil:
// a private one-worker pool), and returns their results in the order of
// runs. Runs that simulate alike share one simulation (see sameSimulation:
// an empty plan is the uninjected baseline): the first of their jobs to
// need it runs it, and the others wait for it and copy its result. The
// FDIP simulations replay one tape, recorded by the first of them that
// runs, when they are enough for the Workers+1 jobs a batch runs at once
// to pay for the recording (prefetch.NewBatch). The pool queues the job
// that first needs each simulation before the jobs that copy one, each
// group by signature (unsigned runs first, in the order of runs). A
// signed run coalesces with equal signatures and persists in the pool's
// store; an unsigned run is a plain job that the pool simulates and
// forgets.
func RunBatch(prog *program.Program, src blockseq.Source, runs []Run, opts ParallelOptions) ([]frontend.Result, error) {
	pool := opts.Pool
	if pool == nil {
		pool = runner.New(runner.Options{Workers: 1})
	}
	sims, fdipSims := shareSimulations(runs)
	pfs := prefetch.NewBatch(prog, src, fdipSims, pool.Workers()+1) // a batch runs Workers+1 jobs at once
	jobs := make([]runner.Job, len(runs))
	for i, r := range runs {
		s := sims[i]
		cost := 0.0 // a copy
		if s.first == i {
			cost = 1
		}
		jobs[i] = runner.NewJob(r.Sig, r.Label, cost, func() (*frontend.Result, error) {
			s.once.Do(func() {
				s.err = errUnfinished // what the waiters see if the run panics
				s.res, s.err = runPlan(prog, src, r.Config, r.Plan, pfs)
			})
			if s.err != nil {
				return nil, s.err
			}
			res := s.res
			return &res, nil
		})
	}
	vals, err := pool.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	results := make([]frontend.Result, len(vals))
	for i, v := range vals {
		results[i] = *(v.(*frontend.Result))
	}
	return results, nil
}

// simulation is one simulation of a batch, shared by the runs that
// simulate alike: runs[first] is the first of them.
type simulation struct {
	first int
	once  sync.Once
	res   frontend.Result
	err   error
}

// errUnfinished is a shared simulation's error when the job running it
// panicked (the runner reports the panic on that job).
var errUnfinished = errors.New("core: a shared simulation did not finish")

// shareSimulations gives each run its simulation, one per class of runs
// that simulate alike, and counts the simulations that run FDIP.
func shareSimulations(runs []Run) (sims []*simulation, fdip int) {
	sims = make([]*simulation, len(runs))
	var distinct []*simulation
	for i, r := range runs {
		for _, s := range distinct {
			if sameSimulation(runs[s.first], r) {
				sims[i] = s
				break
			}
		}
		if sims[i] == nil {
			sims[i] = &simulation{first: i}
			distinct = append(distinct, sims[i])
			if r.Config.Prefetcher == "fdip" {
				fdip++
			}
		}
	}
	return sims, fdip
}

// sameSimulation reports whether runs a and b simulate alike: their
// configurations are equal but for Thresholds, which no single run reads,
// and their plans inject the same victims into the same blocks. A plan
// that injects nothing is the uninjected program, as a nil plan is; other
// plan fields (threshold, window counts) do not reach the simulation.
func sameSimulation(a, b Run) bool {
	x, y := a.Config, b.Config
	return x.Params == y.Params && x.Policy == y.Policy && x.Prefetcher == y.Prefetcher &&
		x.Hints == y.Hints && x.MeasureAccuracy == y.MeasureAccuracy &&
		x.WarmupBlocks == y.WarmupBlocks && x.ShiftLayout == y.ShiftLayout &&
		maps.EqualFunc(a.Plan.injections(), b.Plan.injections(), slices.Equal[[]uint64])
}

// assembleTune folds the per-threshold results into a TuneResult in
// sweep order, so the curve does not depend on job completion order.
//
// Best selection is explicit about ties: the highest speedup wins, and
// equal speedups resolve to the LOWEST threshold (at equal benefit the
// higher threshold injects no fewer instructions, and a serial sweep
// would keep the earliest — i.e. lowest — point of an ascending sweep;
// parallel collection has no loop order to lean on, so the rule is
// stated here rather than implied).
func assembleTune(a *Analysis, thresholds []float64, plans []*Plan, baseline frontend.Result, results []frontend.Result) *TuneResult {
	tr := &TuneResult{Baseline: baseline, Best: -1}
	for i, th := range thresholds {
		res := results[i]
		pt := ThresholdPoint{
			Threshold:  th,
			Coverage:   res.Coverage(),
			Accuracy:   res.HintAccuracy(),
			MPKI:       res.MPKI(),
			SpeedupPct: frontend.Speedup(baseline, res),
			Static:     plans[i].StaticInstructions(),
		}
		tr.Curve = append(tr.Curve, pt)
		best := tr.Best
		if best < 0 || pt.SpeedupPct > tr.Curve[best].SpeedupPct ||
			(pt.SpeedupPct == tr.Curve[best].SpeedupPct && pt.Threshold < tr.Curve[best].Threshold) {
			tr.Best = i
		}
	}
	plans = append([]*Plan(nil), plans...)
	if tr.Curve[tr.Best].SpeedupPct < 0 {
		// No threshold improved on this configuration's baseline: ship the
		// uninjected binary (a deployment never regresses; an empty plan
		// is the threshold->infinity limit of the sweep).
		tr.Curve = append(tr.Curve, ThresholdPoint{
			Threshold: 1,
			MPKI:      baseline.MPKI(),
		})
		tr.Best = len(tr.Curve) - 1
		plans = append(plans, &Plan{
			Program:      a.Prog.Name,
			Threshold:    1,
			Injections:   map[program.BlockID][]uint64{},
			WindowsTotal: a.Windows,
		})
	}
	tr.BestPlan = plans[tr.Best]
	return tr
}

// RunPlan simulates the program on the trace under the tuning
// configuration, with plan's injections applied first (nil plan = the
// uninjected baseline). The experiment harness uses it to re-evaluate a
// tuned plan with extra instrumentation or on a different input's trace.
//
// Injections are placed layout-neutrally (ApplyPreservingLayout): moving
// every downstream byte would remap the hot footprint across cache sets
// and invalidate the very profile the plan came from. Such a plan is
// simulated on prog itself through the frontend's per-block hint table
// (frontend.Options.Injections), so no run copies the program; a cue
// block outside prog is an error. Set cfg.ShiftLayout to evaluate the
// naive relayout instead (the `layout` ablation), which rewrites a copy.
func RunPlan(prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan) (frontend.Result, error) {
	return runPlan(prog, src, cfg, plan, nil)
}

// runPlan is RunPlan with its prefetcher from pfs (nil: a live one).
func runPlan(prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan, pfs *prefetch.Batch) (frontend.Result, error) {
	target, newOpts := runOptions(prog, cfg, plan, pfs)
	opts, err := newOpts()
	if err != nil {
		return frontend.Result{}, err
	}
	return frontend.Run(cfg.Params, target, src, opts)
}

// AccessEvents is the demand and prefetch access stream of RunPlan's run
// of cfg and plan (see frontend.AccessEvents): each pass re-simulates
// that run with a fresh policy and prefetcher. Accuracy scoring moves no
// access, so the passes leave it out.
func AccessEvents(prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan) opt.EventSource {
	cfg.MeasureAccuracy = false
	target, newOpts := runOptions(prog, cfg, plan, nil)
	return frontend.AccessEvents(cfg.Params, target, src, newOpts)
}

// runOptions places plan in prog (nil: none) and returns the program a
// run of cfg simulates, with a function that makes the run's fresh
// frontend options: an empty Policy is LRU, an empty Prefetcher none,
// and the prefetcher comes from pfs (nil: a live one).
func runOptions(prog *program.Program, cfg TuneConfig, plan *Plan, pfs *prefetch.Batch) (*program.Program, func() (frontend.Options, error)) {
	target := prog
	var hints map[program.BlockID][]uint64
	if plan != nil {
		if cfg.ShiftLayout {
			target = plan.Apply(prog)
		} else {
			hints = plan.Injections
		}
	}
	return target, func() (frontend.Options, error) {
		opts := frontend.Options{
			Hints:           cfg.Hints,
			MeasureAccuracy: cfg.MeasureAccuracy,
			WarmupBlocks:    cfg.WarmupBlocks,
			Injections:      hints,
		}
		var err error
		if cfg.Policy != "" {
			if opts.Policy, err = replacement.New(cfg.Policy); err != nil {
				return opts, err
			}
		}
		if cfg.Prefetcher != "" {
			opts.Prefetcher, err = pfs.New(cfg.Prefetcher, target)
		}
		return opts, err
	}
}
