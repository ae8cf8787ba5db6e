// Jitapp: why the HHVM applications (drupal, mediawiki, wordpress) get
// less out of Ripple — half their executed code is JIT-compiled, its
// addresses are reused across the run, and Ripple refuses to inject
// invalidations into it at link time (Sec. IV, Fig. 9).
//
// This example optimizes drupal twice: as-is (JIT half) and as a
// hypothetical ahead-of-time build of the same application (JITFraction
// 0), and shows the coverage gap.
//
//	go run ./examples/jitapp
package main

import (
	"fmt"
	"log"

	"ripple"
)

func run(m ripple.Model, label string) error {
	const (
		traceBlocks = 400_000
		warmup      = 130_000
	)
	app, err := ripple.BuildWorkload(m)
	if err != nil {
		return err
	}
	profile := ripple.SliceSource(app.Trace(0, traceBlocks))
	tcfg := ripple.TuneConfig{
		Params:       ripple.DefaultParams(),
		Policy:       "lru",
		Prefetcher:   "fdip",
		WarmupBlocks: warmup,
	}
	out, err := ripple.Optimize(app.Prog, profile, ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		return err
	}
	res, err := ripple.RunPlan(app.Prog, profile, tcfg, out.Tune.BestPlan)
	if err != nil {
		return err
	}
	jitBlocks := 0
	for i := range app.Prog.Blocks {
		if app.Prog.Blocks[i].JIT {
			jitBlocks++
		}
	}
	fmt.Printf("%-22s jit-blocks=%5d skipped-jit=%5d skipped-kernel=%3d coverage=%5.1f%% speedup=%+.2f%%\n",
		label, jitBlocks, out.Tune.BestPlan.SkippedJIT, out.Tune.BestPlan.SkippedKernel,
		res.Coverage()*100, out.Tune.BestPoint().SpeedupPct)
	return nil
}

func main() {
	m := ripple.MustWorkload("drupal")
	if err := run(m, "drupal (JIT half)"); err != nil {
		log.Fatal(err)
	}
	aot := m
	aot.Name = "drupal-aot"
	aot.JITFraction = 0
	if err := run(aot, "drupal-aot (no JIT)"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nJIT code blocks are skipped by the injector, so coverage (and gain) drops")
	fmt.Println("for the HHVM apps even though enough static code remains to optimize.")
}
