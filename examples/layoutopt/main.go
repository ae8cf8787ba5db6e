// Layoutopt: Ripple composed with the profile-guided code-layout
// optimizations the paper's introduction cites (AutoFDO / BOLT / C3).
//
// Both techniques consume the same basic-block profile. Layout packs hot
// paths densely into few cache lines and clusters call chains; Ripple then
// fixes the *replacement* decisions the layout still cannot control. The
// gains stack.
//
//	go run ./examples/layoutopt
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
	app, err := ripple.BuildWorkload(ripple.MustWorkload("tomcat"))
	if err != nil {
		log.Fatal(err)
	}
	profile := ripple.SliceSource(app.Trace(0, traceBlocks))
	tcfg := ripple.TuneConfig{
		Params:       ripple.DefaultParams(),
		Policy:       "lru",
		Prefetcher:   "none",
		WarmupBlocks: warmup,
	}

	base, err := ripple.RunPlan(app.Prog, profile, tcfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	report := func(tag string, r ripple.Result) {
		fmt.Printf("%-16s IPC %.3f  MPKI %5.2f  speedup %+6.2f%%\n",
			tag, r.IPC(), r.MPKI(), ripple.Speedup(base, r))
	}
	report("baseline", base)

	// 1. BOLT/C3-style layout from the same profile.
	lprof, err := ripple.ProfileLayout(app.Prog, profile)
	if err != nil {
		log.Fatal(err)
	}
	optimized, err := ripple.OptimizeLayout(app.Prog, lprof, ripple.DefaultLayoutOptions())
	if err != nil {
		log.Fatal(err)
	}
	lres, err := ripple.RunPlan(optimized, profile, tcfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("layout", lres)

	// 2. Ripple alone on the original image.
	out, err := ripple.Optimize(app.Prog, profile, ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		log.Fatal(err)
	}
	rres, err := ripple.RunPlan(app.Prog, profile, tcfg, out.Tune.BestPlan)
	if err != nil {
		log.Fatal(err)
	}
	report("ripple", rres)

	// 3. Composed: re-analyze the optimized image (block IDs are stable,
	//    so the same profile drives both stages) and inject.
	out2, err := ripple.Optimize(optimized, profile, ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		log.Fatal(err)
	}
	bres, err := ripple.RunPlan(optimized, profile, tcfg, out2.Tune.BestPlan)
	if err != nil {
		log.Fatal(err)
	}
	report("layout+ripple", bres)
}
