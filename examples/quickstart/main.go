// Quickstart: the whole Ripple pipeline in one screen.
//
// It builds a synthetic data-center application (finagle-http), records a
// basic-block profile, runs Ripple's eviction analysis and threshold
// tuning against an FDIP + LRU frontend, injects the invalidation
// instructions, and reports the headline numbers: speedup, miss
// reduction, coverage, and instruction overheads.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ripple"
)

func main() {
	const (
		traceBlocks = 400_000
		warmup      = 130_000
	)

	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d functions, %d basic blocks, %.0fKB of text\n",
		app.Model.Name, len(app.Prog.Funcs), app.Prog.NumBlocks(),
		float64(app.Prog.TotalBytes())/1024)

	// 1. Profile: record the basic-block execution sequence (in
	//    production this is an Intel PT capture; see ripple.EncodeTrace).
	profile := ripple.SliceSource(app.Trace(0, traceBlocks))
	fmt.Printf("profiled %d block executions\n", len(profile))

	// 2-3. Analyze + tune + inject: replay the ideal replacement policy,
	//    find cue blocks, sweep the invalidation threshold, and rewrite
	//    the binary with the winning plan.
	// The no-prefetch configuration shows Ripple's effect most directly
	// (the paper's Fig. 7 leftmost panel); swap in "nlp" or "fdip" to see
	// the interaction with prefetching.
	tcfg := ripple.TuneConfig{
		Params:       ripple.DefaultParams(),
		Policy:       "lru",
		Prefetcher:   "none",
		WarmupBlocks: warmup,
	}
	out, err := ripple.Optimize(app.Prog, profile, ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		log.Fatal(err)
	}

	best := out.Tune.BestPoint()
	base := out.Tune.Baseline
	fmt.Printf("\neviction analysis: %d windows from %d ideal misses\n",
		out.Analysis.Windows, out.Analysis.IdealMisses)
	fmt.Printf("tuned invalidation threshold: %.0f%%\n", best.Threshold*100)
	fmt.Printf("injected %d invalidate instructions (%.2f%% static overhead)\n",
		out.Tune.BestPlan.StaticInstructions(), out.StaticOverheadPct)

	// 4. Verify on the evaluation run.
	res, err := ripple.RunPlan(app.Prog, profile, tcfg, out.Tune.BestPlan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline  (LRU):             IPC %.3f, L1I MPKI %.2f\n", base.IPC(), base.MPKI())
	fmt.Printf("ripple-lru:                  IPC %.3f, L1I MPKI %.2f\n", res.IPC(), res.MPKI())
	fmt.Printf("speedup: %+.2f%%   miss reduction: %.1f%%   coverage: %.0f%%   dynamic overhead: %.2f%%\n",
		ripple.Speedup(base, res),
		(base.MPKI()-res.MPKI())/base.MPKI()*100,
		res.Coverage()*100,
		ripple.DynamicOverheadPct(res))
}
