// Webserver: the coverage/accuracy trade-off on a Finagle-HTTP-like
// service (the paper's Fig. 6 scenario), plus the invalidate-vs-demote
// comparison of Sec. IV.
//
// Low invalidation thresholds cover almost every replacement decision but
// evict live lines (poor accuracy); high thresholds are almost always
// right but cover too little to matter. The sweet spot in the middle is
// where Ripple beats the hardware policy.
//
//	go run ./examples/webserver
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
	profile := ripple.SliceSource(app.Trace(0, traceBlocks))

	analysis, err := ripple.Analyze(app.Prog, profile, ripple.DefaultAnalysisConfig())
	if err != nil {
		log.Fatal(err)
	}

	tcfg := ripple.TuneConfig{
		Params:          ripple.DefaultParams(),
		Policy:          "lru",
		Prefetcher:      "fdip",
		WarmupBlocks:    warmup,
		MeasureAccuracy: true,
		Thresholds:      []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95},
	}
	tune, err := ripple.Tune(analysis, profile, tcfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("threshold  coverage  accuracy   MPKI  speedup")
	for _, pt := range tune.Curve {
		marker := " "
		if pt.Threshold == tune.BestPoint().Threshold {
			marker = "*"
		}
		fmt.Printf("   %5.2f     %5.1f%%    %5.1f%%  %5.2f  %+6.2f%% %s\n",
			pt.Threshold, pt.Coverage*100, pt.Accuracy*100, pt.MPKI, pt.SpeedupPct, marker)
	}

	// Sec. IV: executing the same plan as LRU demotions instead of
	// invalidations (the line stays resident but becomes the next victim).
	dcfg := tcfg
	dcfg.Hints = ripple.HintDemote
	dem, err := ripple.RunPlan(app.Prog, profile, dcfg, tune.BestPlan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest plan executed as invalidate: %+.2f%%\n", tune.BestPoint().SpeedupPct)
	fmt.Printf("best plan executed as demote:     %+.2f%%\n", ripple.Speedup(tune.Baseline, dem))
}
