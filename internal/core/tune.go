package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

// TuneConfig describes the configuration a plan is tuned for.
type TuneConfig struct {
	Params frontend.Params
	// Policy names the underlying hardware replacement policy ("lru",
	// "random", ...).
	Policy string
	// Prefetcher names the prefetch configuration ("none", "nlp", "fdip").
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

func (c *TuneConfig) newPolicy() (cache.Policy, error) {
	if c.Policy == "" {
		return replacement.NewLRU(), nil
	}
	return replacement.New(c.Policy)
}

// newPrefetcher builds the prefetcher of one run on prog: from pfs, the
// prefetchers of the run's batch, or live when pfs is nil.
func (c *TuneConfig) newPrefetcher(prog *program.Program, pfs *prefetch.Batch) (prefetch.Prefetcher, error) {
	if c.Prefetcher == "" {
		return prefetch.None{}, nil
	}
	return pfs.New(c.Prefetcher, prog)
}

// Tune sweeps the invalidation threshold: each candidate plan is applied
// to the program and simulated on the training trace under the configured
// policy and prefetcher; the plan with the highest speedup over the
// uninjected baseline wins. This is the per-application threshold
// selection of Sec. III-C (the optimum lands in the paper's 45-65% band).
//
// Tune runs the sweep serially; TuneParallel fans the per-threshold
// simulations out across a job-runner pool with byte-identical output.
func Tune(a *Analysis, src blockseq.Source, cfg TuneConfig) (*TuneResult, error) {
	return TuneParallel(a, src, cfg, ParallelOptions{})
}

// ParallelOptions carries the execution substrate for a parallel
// threshold sweep.
type ParallelOptions struct {
	// Pool schedules the baseline and per-threshold simulations as
	// independent runner jobs. nil runs the sweep serially (Tune).
	// TuneParallel may be called from inside a running job on the same
	// pool: its batch shares the pool's worker budget (see
	// runner.Pool.RunAll) rather than nesting a second worker set.
	Pool *runner.Pool
	// Ctx cancels the sweep; nil means context.Background().
	Ctx context.Context
	// SourceID is a stable content identity for src (e.g. "workload
	// generator version + app + input + length", or a trace file's
	// content hash). It completes the job signatures, so results land in
	// the pool's persistent store and warm reruns — including
	// experiment.Suite runs over the same source and configuration —
	// skip simulation entirely. Leave it empty when the source has no
	// stable identity: the sweep still parallelizes, but its jobs are
	// keyed by a process-unique nonce and bypass the store.
	SourceID string
}

// anonSource numbers Tune calls whose source has no stable identity, so
// their in-process job signatures can never collide across calls.
var anonSource atomic.Int64

// TuneParallel is Tune with every simulation — the uninjected baseline
// and one run per candidate threshold — submitted as an independent,
// content-signed job to opts.Pool. Each job is keyed by the full run
// signature (program fingerprint, plan digest + threshold, policy,
// prefetcher, machine params, warmup, hint mode, and the source
// identity), so equal sweeps coalesce in-process and, with a persistent
// store, warm reruns perform zero simulations.
//
// Output is byte-identical to the serial sweep for any worker count:
// results are folded in sweep order, and Best resolves explicitly
// (highest speedup, ties to the lowest threshold) rather than by
// completion order.
func TuneParallel(a *Analysis, src blockseq.Source, cfg TuneConfig, opts ParallelOptions) (*TuneResult, error) {
	thresholds := cfg.Thresholds
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: no thresholds to tune over")
	}
	plans := make([]*Plan, len(thresholds))
	for i, th := range thresholds {
		plans[i] = a.PlanAt(th)
	}

	// The sweep's FDIP runs replay one tape, recorded by the first run that
	// simulates and dropped when the sweep returns, unless they are too
	// few for the runs that go at once to pay for the recording.
	slots := 1
	if opts.Pool != nil {
		slots = opts.Pool.Workers() + 1 // a batch runs Workers+1 jobs at once
	}
	pfs := prefetch.NewBatch(a.Prog, src, len(plans)+1, slots)
	var baseline frontend.Result
	results := make([]frontend.Result, len(thresholds))
	if opts.Pool == nil {
		var err error
		if baseline, err = runPlan(a.Prog, src, cfg, nil, pfs); err != nil {
			return nil, err
		}
		for i, plan := range plans {
			if results[i], err = runPlan(a.Prog, src, cfg, plan, pfs); err != nil {
				return nil, err
			}
		}
	} else if err := runSweepJobs(a, src, cfg, opts, pfs, thresholds, plans, &baseline, results); err != nil {
		return nil, err
	}
	return assembleTune(a, thresholds, plans, baseline, results), nil
}

// runSweepJobs fans the sweep out across the pool and collects every
// result back into sweep order.
func runSweepJobs(a *Analysis, src blockseq.Source, cfg TuneConfig, opts ParallelOptions, pfs *prefetch.Batch,
	thresholds []float64, plans []*Plan, baseline *frontend.Result, results []frontend.Result) error {
	srcID := opts.SourceID
	skipStore := false
	if srcID == "" {
		// No stable source identity: parallelize with process-unique
		// signatures and keep the store out of it.
		skipStore = true
		srcID = fmt.Sprintf("anon#%d", anonSource.Add(1))
	}
	progFP, err := a.Prog.Fingerprint()
	if err != nil {
		return fmt.Errorf("core: fingerprinting program: %w", err)
	}
	base := fmt.Sprintf("rtune1|prog=%s|src=%s|params=%+v|pol=%s|pf=%s|hints=%d|warmup=%d|shift=%t|acc=%t",
		progFP, srcID, cfg.Params, cfg.Policy, cfg.Prefetcher, cfg.Hints, cfg.WarmupBlocks, cfg.ShiftLayout, cfg.MeasureAccuracy)
	cost := float64(a.TraceBlocks)
	if cfg.MeasureAccuracy {
		cost *= 1.5
	}

	job := func(sig, label string, plan *Plan) runner.Job {
		j := runner.NewJob(sig, label, cost, func(context.Context) (*frontend.Result, error) {
			res, err := runPlan(a.Prog, src, cfg, plan, pfs)
			if err != nil {
				return nil, err
			}
			return &res, nil
		})
		j.SkipStore = skipStore
		return j
	}

	jobs := []runner.Job{job(base+"|plan=none", fmt.Sprintf("tune %s baseline", a.Prog.Name), nil)}
	for i, th := range thresholds {
		dg, err := plans[i].Digest()
		if err != nil {
			return fmt.Errorf("core: digesting plan: %w", err)
		}
		sig := fmt.Sprintf("%s|th=%g|plan=%s", base, th, dg)
		jobs = append(jobs, job(sig, fmt.Sprintf("tune %s th=%.2f", a.Prog.Name, th), plans[i]))
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	vals, err := opts.Pool.RunAll(ctx, jobs)
	if err != nil {
		return err
	}
	*baseline = *(vals[0].(*frontend.Result))
	for i, v := range vals[1:] {
		results[i] = *(v.(*frontend.Result))
	}
	return nil
}

// assembleTune folds the per-threshold results into a TuneResult in
// sweep order, so serial and parallel execution produce byte-identical
// curves regardless of job completion order.
//
// Best selection is explicit about ties: the highest speedup wins, and
// equal speedups resolve to the LOWEST threshold (at equal benefit the
// higher threshold injects no fewer instructions, and the serial sweep
// historically kept the earliest — i.e. lowest — point of an ascending
// sweep; parallel collection has no loop order to lean on, so the rule
// is stated here rather than implied).
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
	pol, err := cfg.newPolicy()
	if err != nil {
		return frontend.Result{}, err
	}
	target := prog
	var hints map[program.BlockID][]uint64
	if plan != nil {
		if cfg.ShiftLayout {
			target = plan.Apply(prog)
		} else {
			hints = plan.Injections
		}
	}
	pf, err := cfg.newPrefetcher(target, pfs)
	if err != nil {
		return frontend.Result{}, err
	}
	return frontend.Run(cfg.Params, target, src, frontend.Options{
		Policy:          pol,
		Prefetcher:      pf,
		Hints:           cfg.Hints,
		MeasureAccuracy: cfg.MeasureAccuracy,
		WarmupBlocks:    cfg.WarmupBlocks,
		Injections:      hints,
	})
}
