// Command rippleanalyze is the offline half of Ripple: it decodes a
// recorded control-flow trace, replays the ideal replacement policy over
// it, selects cue blocks, and emits a link-time injection plan.
//
// Usage:
//
//	rippleanalyze -prog /tmp/fh.prog -pt /tmp/fh.pt -threshold 0.55 -out /tmp/fh.plan
//
// With -threshold 0 the invalidation threshold is tuned by sweeping
// candidates and simulating each (the per-application selection of
// Sec. III-C). The sweep's simulations fan out across -j workers; with
// -cachedir they persist in a content-addressed store keyed by the
// program and trace content, so a warm rerun performs zero simulations.
// Output is byte-identical for any worker count. -json additionally
// writes a machine-readable report of the analysis, sweep, and plan.
//
// By default the trace must decode cleanly. With -recover a damaged
// trace resynchronizes at the next sync point (ripplegen -syncevery)
// after any corrupt region, the analysis runs over whatever survives,
// and the report carries the decoded coverage. Transient simulation
// failures retry with deterministic backoff (-retries).
//
// The trace is memory-mapped, or read through ReadAt where the platform
// cannot map it; the output is identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ripple/internal/cliflag"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
)

func main() {
	var o options
	o.Trace.Register(flag.CommandLine, "program image from ripplegen (required)")
	flag.StringVar(&o.Out, "out", "", "output plan path (required)")
	flag.Float64Var(&o.Threshold, "threshold", 0, "invalidation threshold; 0 tunes it by simulation")
	flag.StringVar(&o.Policy, "policy", "lru", "underlying replacement policy to tune against ("+strings.Join(replacement.Names(), ", ")+")")
	flag.StringVar(&o.Prefetcher, "prefetcher", "fdip", "prefetcher to tune against ("+strings.Join(prefetch.Names(), ", ")+")")
	flag.IntVar(&o.Warmup, "warmup", 0, "warmup blocks excluded from tuning measurements")
	flag.IntVar(&o.Workers, "j", 0, "parallel tuning simulations (default GOMAXPROCS)")
	flag.StringVar(&o.CacheDir, "cachedir", "", "directory for the persistent result store (default: no persistence)")
	flag.StringVar(&o.JSONOut, "json", "", "also write a JSON report to this path")
	flag.IntVar(&o.Retries, "retries", 2, "retry budget for transiently failing simulations")
	flag.Parse()
	o.Stdout = os.Stdout

	stats, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rippleanalyze:", err)
		os.Exit(1)
	}
	if o.CacheDir != "" && o.Threshold == 0 {
		line := fmt.Sprintf("jobs: %d simulated, %d from store", stats.Computed, stats.StoreHits)
		if stats.Retries > 0 {
			line += fmt.Sprintf(", %d retried", stats.Retries)
		}
		if stats.Quarantined > 0 {
			line += fmt.Sprintf(", %d quarantined/%d recovered", stats.Quarantined, stats.Recovered)
		}
		fmt.Println(line)
	}
}

// options carries one invocation's inputs; tests drive run directly.
type options struct {
	cliflag.Trace
	Out                string
	Threshold          float64
	Policy, Prefetcher string
	Warmup             int
	Workers            int
	CacheDir           string
	JSONOut            string
	Retries            int
	Stdout             io.Writer
}

// report is the -json output: everything the run decided, in a
// deterministic field order (injections sorted by cue block).
type report struct {
	Program     string
	TraceBlocks int
	Windows     int
	IdealMisses uint64
	// Coverage reports how much of the declared profile survived decoding
	// (present only with -recover).
	Coverage *core.SourceCoverage `json:",omitempty"`
	// Curve/Best describe the threshold sweep (absent with -threshold set).
	Curve []core.ThresholdPoint `json:",omitempty"`
	Best  int
	Plan  planReport
	// Jobs summarizes the sweep's execution (absent with -threshold set).
	// ComputeTime and in-process coalescing are excluded: they vary with
	// scheduling, and the report must be byte-identical for any -j.
	Jobs *jobsReport `json:",omitempty"`
}

type jobsReport struct {
	Simulated   int64
	StoreHits   int64
	Retries     int64
	Quarantined int64
	Recovered   int64
}

type planReport struct {
	Threshold      float64
	Instructions   int
	WindowsCovered int
	WindowsTotal   int
	SkippedJIT     int
	SkippedKernel  int
	Injections     []injectionReport
}

type injectionReport struct {
	Block   program.BlockID
	Victims []uint64
}

func run(o options) (runner.Stats, error) {
	var stats runner.Stats
	if o.ProgPath == "" || o.PTPath == "" || o.Out == "" {
		return stats, fmt.Errorf("-prog, -pt, and -out are required")
	}
	if o.Threshold < 0 || o.Threshold > 1 {
		return stats, fmt.Errorf("-threshold %v outside [0, 1] (0 tunes automatically)", o.Threshold)
	}
	if o.Stdout == nil {
		o.Stdout = io.Discard
	}
	prog, tr, _, err := o.Trace.Load()
	if err != nil {
		return stats, err
	}

	acfg := core.DefaultAnalysisConfig()
	analysis, err := core.Analyze(prog, tr, acfg)
	if err != nil {
		return stats, err
	}
	fmt.Fprintf(o.Stdout, "analysis: %d trace blocks, %d eviction windows, %d ideal misses\n",
		analysis.TraceBlocks, analysis.Windows, analysis.IdealMisses)
	if cov := analysis.Coverage; cov != nil {
		fmt.Fprintf(o.Stdout, "coverage: %.2f%% of declared profile (%d of %d blocks", cov.Fraction()*100, cov.Decoded, cov.Declared)
		if cov.Regions > 0 {
			fmt.Fprintf(o.Stdout, "; %d damaged regions, %d blocks lost", cov.Regions, cov.Lost)
		}
		fmt.Fprintln(o.Stdout, ")")
	}

	rep := report{
		Program:     prog.Name,
		TraceBlocks: analysis.TraceBlocks,
		Windows:     analysis.Windows,
		IdealMisses: analysis.IdealMisses,
		Coverage:    analysis.Coverage,
	}
	var plan *core.Plan
	if o.Threshold > 0 {
		plan = analysis.PlanAt(o.Threshold)
	} else {
		tcfg := core.TuneConfig{
			Params:       frontend.DefaultParams(),
			Policy:       o.Policy,
			Prefetcher:   o.Prefetcher,
			WarmupBlocks: o.Warmup,
		}
		popts, pool, err := parallelOpts(o)
		if err != nil {
			return stats, err
		}
		tuned, err := core.TuneParallel(analysis, tr, tcfg, popts)
		if err != nil {
			return stats, err
		}
		stats = pool.Stats()
		plan = tuned.BestPlan
		rep.Curve, rep.Best = tuned.Curve, tuned.Best
		rep.Jobs = &jobsReport{
			Simulated:   stats.Computed,
			StoreHits:   stats.StoreHits,
			Retries:     stats.Retries,
			Quarantined: stats.Quarantined,
			Recovered:   stats.Recovered,
		}
		fmt.Fprintf(o.Stdout, "tuned threshold %.2f: %+.2f%% speedup, %.0f%% coverage\n",
			tuned.BestPoint().Threshold, tuned.BestPoint().SpeedupPct, tuned.BestPoint().Coverage*100)
	}
	fmt.Fprintf(o.Stdout, "plan: %d cue blocks, %d invalidate instructions, %d/%d windows covered, %d JIT cues skipped\n",
		len(plan.Injections), plan.StaticInstructions(), plan.WindowsCovered, plan.WindowsTotal, plan.SkippedJIT)

	f, err := os.Create(o.Out)
	if err != nil {
		return stats, err
	}
	defer f.Close()
	if err := plan.Save(f); err != nil {
		return stats, err
	}
	if o.JSONOut != "" {
		rep.Plan = summarizePlan(plan)
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return stats, err
		}
		if err := os.WriteFile(o.JSONOut, append(raw, '\n'), 0o644); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// parallelOpts builds the tuning sweep's execution substrate: a worker
// pool (with a persistent store under -cachedir) and the trace's content
// identity, so equal (program, trace, config) reruns hit the store.
func parallelOpts(o options) (core.ParallelOptions, *runner.Pool, error) {
	var store *runner.Store
	if o.CacheDir != "" {
		var err error
		if store, err = runner.OpenStore(o.CacheDir); err != nil {
			return core.ParallelOptions{}, nil, err
		}
	}
	pool := runner.New(runner.Options{Workers: o.Workers, Store: store, Retries: o.Retries})
	srcID, err := cliflag.FileDigest(o.PTPath)
	if err != nil {
		return core.ParallelOptions{}, nil, err
	}
	return core.ParallelOptions{Pool: pool, SourceID: "pt:" + srcID}, pool, nil
}

// summarizePlan flattens a plan into the deterministic report form.
func summarizePlan(p *core.Plan) planReport {
	pr := planReport{
		Threshold:      p.Threshold,
		Instructions:   p.StaticInstructions(),
		WindowsCovered: p.WindowsCovered,
		WindowsTotal:   p.WindowsTotal,
		SkippedJIT:     p.SkippedJIT,
		SkippedKernel:  p.SkippedKernel,
		Injections:     []injectionReport{},
	}
	for b, victims := range p.Injections {
		pr.Injections = append(pr.Injections, injectionReport{Block: b, Victims: victims})
	}
	sort.Slice(pr.Injections, func(i, j int) bool { return pr.Injections[i].Block < pr.Injections[j].Block })
	return pr
}
