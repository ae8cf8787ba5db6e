// Benchmarks: one per paper table/figure (regenerating the artifact via
// the experiment suite) plus micro-benchmarks of the substrates. The
// experiment benches share one cached suite, so `go test -bench=.`
// computes each underlying simulation once; per-experiment numbers measure
// the incremental cost of that artifact given the shared cache.
package ripple_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ripple"
	"ripple/internal/experiment"
	"ripple/internal/prefetch"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiment.Suite
)

// suite returns the shared benchmark suite: all nine applications at a
// reduced trace length so the whole table set regenerates in minutes.
func suite() *experiment.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiment.New(experiment.Config{
			TraceBlocks:  300_000,
			WarmupBlocks: 100_000,
			Thresholds:   []float64{0.45, 0.65, 0.85},
			Log:          nil,
		})
	})
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	s := suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Tables(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkTab1(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)        { benchExperiment(b, "tab2") }
func BenchmarkObs12(b *testing.B)       { benchExperiment(b, "obs12") }
func BenchmarkCompulsory(b *testing.B)  { benchExperiment(b, "compulsory") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkDemote(b *testing.B)      { benchExperiment(b, "demote") }
func BenchmarkGranularity(b *testing.B) { benchExperiment(b, "granularity") }

// Extension experiments (grounded in the paper's text; see DESIGN.md).
func BenchmarkArch(b *testing.B)       { benchExperiment(b, "arch") }
func BenchmarkMerged(b *testing.B)     { benchExperiment(b, "merged") }
func BenchmarkLBR(b *testing.B)        { benchExperiment(b, "lbr") }
func BenchmarkXPrefetch(b *testing.B)  { benchExperiment(b, "xprefetch") }
func BenchmarkLayout(b *testing.B)     { benchExperiment(b, "layout") }
func BenchmarkCodeLayout(b *testing.B) { benchExperiment(b, "codelayout") }
func BenchmarkWindowCap(b *testing.B)  { benchExperiment(b, "windowcap") }
func BenchmarkHintCost(b *testing.B)   { benchExperiment(b, "hintcost") }
func BenchmarkPhases(b *testing.B)     { benchExperiment(b, "phases") }

// --- parallel runner benchmarks ---

// benchSuiteRun measures a full fresh-suite computation of fig3 (three
// applications, six policies each — 18 independent simulations) at a given
// worker count. A fresh suite per iteration keeps the in-process cache
// cold, so this measures real simulation throughput, serial vs parallel.
func benchSuiteRun(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiment.New(experiment.Config{
			Apps:         []string{"finagle-http", "kafka", "verilator"},
			TraceBlocks:  60_000,
			WarmupBlocks: 20_000,
			Thresholds:   []float64{0.55, 0.95},
			Workers:      workers,
			Log:          nil,
		})
		if _, err := s.Tables("fig3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)    { benchSuiteRun(b, 1) }
func BenchmarkSuiteParallel4(b *testing.B) { benchSuiteRun(b, 4) }

// --- substrate micro-benchmarks ---

func benchApp(b *testing.B) *ripple.App {
	b.Helper()
	app, err := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkWorkloadTrace measures trace synthesis throughput (blocks/op
// scaled by b.N).
func BenchmarkWorkloadTrace(b *testing.B) {
	app := benchApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = app.Trace(0, 50_000)
	}
}

// BenchmarkTraceEncode measures PT-packet encoding of a 50k-block trace.
func BenchmarkTraceEncode(b *testing.B) {
	app := benchApp(b)
	tr := ripple.SliceSource(app.Trace(0, 50_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := ripple.EncodeTrace(&buf, app.Prog, tr, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecode measures CFG-walking decode of the same trace.
func BenchmarkTraceDecode(b *testing.B) {
	app := benchApp(b)
	tr := ripple.SliceSource(app.Trace(0, 50_000))
	var buf bytes.Buffer
	if _, err := ripple.EncodeTrace(&buf, app.Prog, tr, 0); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ripple.DecodeTrace(bytes.NewReader(raw), app.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLRU measures the frontend simulator without
// prefetching; blocks/s is simulated blocks per second.
func BenchmarkSimulateLRU(b *testing.B) {
	app := benchApp(b)
	trace := app.Trace(0, 50_000)
	tr := ripple.SliceSource(trace)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(trace)*b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSimulateFDIP measures the frontend with the branch-predicted
// prefetcher attached; blocks/s is simulated blocks per second.
func BenchmarkSimulateFDIP(b *testing.B) {
	app := benchApp(b)
	trace := app.Trace(0, 50_000)
	tr := ripple.SliceSource(trace)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		pf, _ := ripple.NewPrefetcher("fdip", app.Prog)
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol, Prefetcher: pf}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(trace)*b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkAnalyze measures Ripple's eviction analysis (MIN replay +
// window scan + probability tables) at two trace lengths; blocks/s is
// profiled blocks analyzed per second.
func BenchmarkAnalyze(b *testing.B) {
	app := benchApp(b)
	for _, blocks := range []int{50_000, 500_000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			trace := app.Trace(0, blocks)
			tr := ripple.SliceSource(trace)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ripple.Analyze(app.Prog, tr, ripple.DefaultAnalysisConfig()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(trace)*b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkTune measures the threshold sweep rippleanalyze runs after the
// analysis: ripple.TuneParallel over a 100k-block kafka trace held in
// memory, LRU+FDIP, the default thresholds, one worker. blocks/s is
// trace blocks tuned per second (one sweep is the baseline plus ten
// plans, all replaying one FDIP tape); tape_B/block is that tape's size
// per trace block.
func BenchmarkTune(b *testing.B) {
	app, err := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	if err != nil {
		b.Fatal(err)
	}
	trace := app.Trace(0, 100_000)
	tr := ripple.SliceSource(trace)
	a, err := ripple.Analyze(app.Prog, tr, ripple.DefaultAnalysisConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := ripple.TuneConfig{Params: ripple.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ripple.TuneParallel(a, tr, cfg, ripple.ParallelOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(trace)*b.N)/b.Elapsed().Seconds(), "blocks/s")
	b.StopTimer()
	pf, err := prefetch.New("fdip", app.Prog)
	if err != nil {
		b.Fatal(err)
	}
	tape, err := prefetch.RecordTape(pf.(*prefetch.FDIP), tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tape.Bytes())/float64(len(trace)), "tape_B/block")
}

// --- streaming vs materialized allocation benchmarks ---

// benchSimStream simulates from a workload stream source built inside
// the loop: the per-iteration allocation covers the walker plus the
// simulator's fixed state, and must stay flat as the trace grows (the
// streaming pipeline's O(1) claim; compare the 50k and 200k B/op).
func benchSimStream(b *testing.B, blocks int) {
	app := benchApp(b)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		if _, err := ripple.Simulate(params, app.Prog, app.Stream(0, blocks), ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimSlice is the materialized path the streaming pipeline
// replaced: synthesize the whole trace, then simulate it. Allocation
// scales with the trace length.
func benchSimSlice(b *testing.B, blocks int) {
	app := benchApp(b)
	params := ripple.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := ripple.NewPolicy("lru")
		tr := ripple.SliceSource(app.Trace(0, blocks))
		if _, err := ripple.Simulate(params, app.Prog, tr, ripple.Options{Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateStream50k(b *testing.B)  { benchSimStream(b, 50_000) }
func BenchmarkSimulateStream200k(b *testing.B) { benchSimStream(b, 200_000) }
func BenchmarkSimulateSlice50k(b *testing.B)   { benchSimSlice(b, 50_000) }
func BenchmarkSimulateSlice200k(b *testing.B)  { benchSimSlice(b, 200_000) }
