package ripple_test

import (
	"reflect"
	"testing"

	"ripple"
)

// TestStreamMatchesSliceAcrossConfigs is the acceptance gate for the
// streaming pipeline: for every app × policy × prefetcher combination,
// driving the frontend from a workload stream source must produce a
// Result byte-identical to the materialized-trace path. Any divergence
// means the walker's streaming replay or the simulator's one-block
// lookahead changed observable behavior.
func TestStreamMatchesSliceAcrossConfigs(t *testing.T) {
	const blocks = 40_000
	const warmup = 10_000
	params := ripple.DefaultParams()
	apps := []string{"finagle-http", "kafka", "verilator"}
	policies := []string{"lru", "srrip", "hawkeye"}
	prefetchers := []string{"none", "nlp", "fdip"}
	for _, name := range apps {
		app, err := ripple.BuildWorkload(ripple.MustWorkload(name))
		if err != nil {
			t.Fatal(err)
		}
		tr := app.Trace(0, blocks)
		for _, polName := range policies {
			for _, pfName := range prefetchers {
				run := func(src ripple.BlockSource) ripple.Result {
					pol, err := ripple.NewPolicy(polName)
					if err != nil {
						t.Fatal(err)
					}
					pf, err := ripple.NewPrefetcher(pfName, app.Prog)
					if err != nil {
						t.Fatal(err)
					}
					r, err := ripple.Simulate(params, app.Prog, src, ripple.Options{
						Policy:       pol,
						Prefetcher:   pf,
						WarmupBlocks: warmup,
					})
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				fromSlice := run(ripple.SliceSource(tr))
				fromStream := run(app.Stream(0, blocks))
				if !reflect.DeepEqual(fromSlice, fromStream) {
					t.Errorf("%s/%s/%s: stream result differs from slice result:\nslice:  %+v\nstream: %+v",
						name, polName, pfName, fromSlice, fromStream)
				}
			}
		}
	}
}

// TestStreamMatchesSliceWithAccuracy covers the multi-pass path: accuracy
// measurement adds a Demand-MIN oracle pre-pass that re-opens the source.
func TestStreamMatchesSliceWithAccuracy(t *testing.T) {
	const blocks = 30_000
	params := ripple.DefaultParams()
	app, err := ripple.BuildWorkload(ripple.MustWorkload("tomcat"))
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, blocks)
	run := func(src ripple.BlockSource) ripple.Result {
		pol, _ := ripple.NewPolicy("lru")
		r, err := ripple.Simulate(params, app.Prog, src, ripple.Options{
			Policy:          pol,
			MeasureAccuracy: true,
			WarmupBlocks:    10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fromSlice := run(ripple.SliceSource(tr))
	fromStream := run(app.Stream(0, blocks))
	if !reflect.DeepEqual(fromSlice, fromStream) {
		t.Errorf("accuracy-instrumented stream result differs:\nslice:  %+v\nstream: %+v", fromSlice, fromStream)
	}
}

// TestOptimizeStreamMatchesSlice runs the whole pipeline (analysis,
// tuning, injection) from a stream and from the materialized trace and
// compares the tuned outcome.
func TestOptimizeStreamMatchesSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipelines")
	}
	app, err := ripple.BuildWorkload(ripple.MustWorkload("mediawiki"))
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 120_000
	tcfg := ripple.TuneConfig{
		Params:       ripple.DefaultParams(),
		Policy:       "lru",
		Prefetcher:   "none",
		Thresholds:   []float64{0.55, 0.75, 0.95},
		WarmupBlocks: 40_000,
	}
	fromStream, err := ripple.Optimize(app.Prog, app.Stream(0, blocks), ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSlice, err := ripple.Optimize(app.Prog, ripple.SliceSource(app.Trace(0, blocks)), ripple.DefaultAnalysisConfig(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromStream.Tune.Best != fromSlice.Tune.Best ||
		!reflect.DeepEqual(fromStream.Tune.Curve, fromSlice.Tune.Curve) {
		t.Fatalf("tuned curves differ:\nstream: %+v\nslice:  %+v", fromStream.Tune.Curve, fromSlice.Tune.Curve)
	}
	if !reflect.DeepEqual(fromStream.Tune.BestPlan.Injections, fromSlice.Tune.BestPlan.Injections) {
		t.Fatal("winning plans differ between stream and slice pipelines")
	}
}
