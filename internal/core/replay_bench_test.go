package core

import (
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// The replay benchmarks report *blocks decoded per op* alongside the
// standard ns/op and B/op: the point of the seek index and checkpoints
// is to shrink decode work, and wall clock alone hides that on a loaded
// machine. scripts/bench_replay.sh runs these and commits the numbers
// to BENCH_replay.json.

// benchWindows builds the sparse window list shared by the window-replay
// benchmarks: 9 windows of span 200 spread over a 20k-block trace.
func benchWindows(blocks int32) []window {
	const span, stride = 200, 2_000
	var ws []window
	for end := int32(stride); end < blocks; end += stride {
		ws = append(ws, window{line: 1, trace: 0, start: end - span, end: end})
	}
	return ws
}

func benchWindowReplay(b *testing.B, indexed bool) {
	app := replayApp(b)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(b, app, tr)
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{Index: indexed})
	// One untimed pass maps the file and, when indexed, builds the seek
	// index.
	if _, err := blockseq.Collect(src); err != nil {
		b.Fatal(err)
	}
	windows := benchWindows(blocks)
	counting := src.(trace.DecodeCounting)

	b.ReportAllocs()
	before := counting.DecodedBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := replayWindows(src, windows, 256, func(w window, at func(int32) program.BlockID) {})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	decoded := counting.DecodedBlocks() - before
	b.ReportMetric(float64(decoded)/float64(b.N), "blocks/op")
}

// BenchmarkWindowReplayIndexed serves the window list through the .ptidx
// seek index: ~(span + sync interval) decoded blocks per window.
func BenchmarkWindowReplayIndexed(b *testing.B) { benchWindowReplay(b, true) }

// BenchmarkWindowReplayPrefix is the seed path: no seek capability, so
// each pass decodes the full prefix up to the last window.
func BenchmarkWindowReplayPrefix(b *testing.B) { benchWindowReplay(b, false) }

func benchTune(b *testing.B, checkpointed bool) {
	app := replayApp(b)
	const blocks = 6_000
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2
	a, err := Analyze(app.Prog, app.Stream(0, blocks), cfg)
	if err != nil {
		b.Fatal(err)
	}
	tcfg := TuneConfig{
		Params:       frontend.DefaultParams(),
		Thresholds:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		WarmupBlocks: 1_000,
	}
	tcfg.Params.L1I = cfg.L1I

	b.ReportAllocs()
	var generated uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counted := blockseqtest.Count(app.Stream(0, blocks))
		var src blockseq.Source = counted
		if !checkpointed {
			src = blockseqtest.OpaqueSource{Src: counted}
		}
		if _, err := Tune(a, src, tcfg); err != nil {
			b.Fatal(err)
		}
		generated += counted.Blocks()
	}
	b.StopTimer()
	b.ReportMetric(float64(generated)/float64(b.N), "blocks/op")
}

// BenchmarkTuneCheckpointed sweeps 9 thresholds + baseline over a
// checkpoint-capable walker source: warmup is generated once, each run
// replays only the measured tail.
func BenchmarkTuneCheckpointed(b *testing.B) { benchTune(b, true) }

// BenchmarkTuneFullWarmup is the seed path: every run regenerates the
// warmup prefix from block zero.
func BenchmarkTuneFullWarmup(b *testing.B) { benchTune(b, false) }
