package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/runner"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// replayApp builds the workload used by the replay-acceleration tests
// and benchmarks.
func replayApp(t testing.TB) *workload.App {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "core-replay", Seed: 23,
		Funcs: 50, ServiceFuncs: 5, UtilityFuncs: 4, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// writeSyncTrace encodes tr with a sync point every 256 blocks into a
// temp .pt file.
func writeSyncTrace(t testing.TB, app *workload.App, tr []program.BlockID) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(tr), 256); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireSameAnalysis asserts two analyses are byte-identical in every
// observable output: summary counters, cue selection, and the plans at a
// sweep of thresholds.
func requireSameAnalysis(t *testing.T, a, b *Analysis) {
	t.Helper()
	if a.TraceBlocks != b.TraceBlocks || a.Windows != b.Windows || a.IdealMisses != b.IdealMisses {
		t.Fatalf("summaries differ: {%d %d %d} vs {%d %d %d}",
			a.TraceBlocks, a.Windows, a.IdealMisses, b.TraceBlocks, b.Windows, b.IdealMisses)
	}
	ca, cb := a.selectCues(), b.selectCues()
	if len(ca) != len(cb) {
		t.Fatalf("cue counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Line != cb[i].Line || ca[i].Block != cb[i].Block ||
			math.Abs(ca[i].Probability-cb[i].Probability) > 1e-12 {
			t.Fatalf("cue %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
	for _, th := range []float64{0.2, 0.5, 0.8} {
		pa, pb := a.PlanAt(th), b.PlanAt(th)
		if !reflect.DeepEqual(pa.Injections, pb.Injections) || pa.WindowsCovered != pb.WindowsCovered {
			t.Fatalf("plans at %.1f differ", th)
		}
	}
}

// TestAnalyzeIndexedMatchesPlain: the same profile analyzed through the
// seek-indexed file source, the plain file source, and the materialized
// slice must produce identical analyses — seeking and the Tee'd
// single-decode are pure accelerations.
func TestAnalyzeIndexedMatchesPlain(t *testing.T) {
	app := replayApp(t)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(t, app, tr)

	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	fromSlice, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Analyze(app.Prog, trace.FileSourceOptions(path, app.Prog, trace.FileOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	indexed := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{Index: true})
	fromIndexed, err := Analyze(app.Prog, indexed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromSlice.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	requireSameAnalysis(t, fromSlice, fromFile)
	requireSameAnalysis(t, fromSlice, fromIndexed)
}

// TestAnalyzeOpenCountFlat: a full analysis makes several passes over
// the profile, but with the shared-descriptor file source it must cost
// exactly one file open.
func TestAnalyzeOpenCountFlat(t *testing.T) {
	app := replayApp(t)
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	before := trace.FileOpens()
	if _, err := Analyze(app.Prog, trace.FileSourceOptions(path, app.Prog, trace.FileOptions{}), cfg); err != nil {
		t.Fatal(err)
	}
	if n := trace.FileOpens() - before; n != 1 {
		t.Fatalf("multi-pass analysis performed %d file opens, want 1", n)
	}
}

// TestWindowReplayDecodeBudget is the acceptance bound for seek-aware
// window replay: over an indexed SyncEvery(256) trace, serving sparse
// windows decodes at most (window span + one sync interval) blocks per
// window — not each window's full prefix.
func TestWindowReplayDecodeBudget(t *testing.T) {
	app := replayApp(t)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(t, app, tr)
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{Index: true})

	const maxWin, span, stride = 256, 200, 2_000
	var windows []window
	for end := int32(stride); end < blocks; end += stride {
		windows = append(windows, window{line: 1, trace: 0, start: end - span, end: end})
	}
	counting := src.(trace.DecodeCounting)
	before := counting.DecodedBlocks()
	visited := 0
	err := replayWindows(src, windows, maxWin, func(w window, at func(int32) program.BlockID) {
		// The served blocks must be the real trace, not ring leftovers.
		for ti := w.start + 1; ti <= w.end; ti++ {
			if at(ti) != tr[ti] {
				t.Fatalf("window ending at %d served wrong block at %d", w.end, ti)
			}
		}
		visited++
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(windows) {
		t.Fatalf("visited %d windows, want %d", visited, len(windows))
	}
	decoded := counting.DecodedBlocks() - before
	// Budget: span blocks per window plus at most one sync interval of
	// seek discard (2x slack: the encoder defers syncs to the next
	// syncable transition).
	budget := uint64(len(windows) * (span + 512))
	if decoded > budget {
		t.Fatalf("replay decoded %d blocks over %d windows, budget %d", decoded, len(windows), budget)
	}
	// And it must beat the seed's prefix replay by a wide margin.
	if prefix := uint64(windows[len(windows)-1].end); decoded >= prefix {
		t.Fatalf("replay decoded %d blocks, no better than the %d-block prefix", decoded, prefix)
	}
}

// TestTuneCheckpointedMatchesOpaque: tuning with a checkpoint-capable
// source and with the same source stripped of all capabilities must be
// byte-identical — the warmup split is a pure acceleration.
func TestTuneCheckpointedMatchesOpaque(t *testing.T) {
	app := replayApp(t)
	const blocks = 6_000
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2
	a, err := Analyze(app.Prog, app.Stream(0, blocks), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := TuneConfig{
		Params:       frontend.DefaultParams(),
		Thresholds:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		WarmupBlocks: 1_000,
	}
	tcfg.Params.L1I = cfg.L1I

	capable, err := Tune(a, app.Stream(0, blocks), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	opaque, err := Tune(a, blockseqtest.OpaqueSource{Src: app.Stream(0, blocks)}, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capable, opaque) {
		t.Fatalf("checkpointed tune diverged from opaque:\ncapable: %+v\nopaque: %+v", capable, opaque)
	}
	// And the parallel sweep over the checkpointed source matches both.
	pool := runner.New(runner.Options{Workers: 8})
	par, err := TuneParallel(a, app.Stream(0, blocks), tcfg, ParallelOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capable, par) {
		t.Fatalf("parallel checkpointed tune diverged from serial:\nserial: %+v\nparallel: %+v", capable, par)
	}
}

// TestCheckpointedTuningDecodesWarmupOnce is the acceptance accounting:
// across a baseline plus >= 8 threshold candidates, the warmup prefix is
// generated exactly once, and every run re-generates only the tail.
func TestCheckpointedTuningDecodesWarmupOnce(t *testing.T) {
	app := replayApp(t)
	const blocks, warmup = 6_000, 1_000
	// The walker may overshoot the requested minimum; measure the true
	// pass length first, outside the counted source.
	full, err := blockseq.Collect(app.Stream(0, blocks))
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(full))

	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2
	a, err := Analyze(app.Prog, app.Stream(0, blocks), cfg)
	if err != nil {
		t.Fatal(err)
	}

	thresholds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	tcfg := TuneConfig{
		Params:       frontend.DefaultParams(),
		Thresholds:   thresholds,
		WarmupBlocks: warmup,
	}
	tcfg.Params.L1I = cfg.L1I

	counted := blockseqtest.Count(app.Stream(0, blocks))
	if _, err := Tune(a, counted, tcfg); err != nil {
		t.Fatal(err)
	}
	runs := uint64(len(thresholds) + 1) // baseline + one per threshold
	want := warmup + runs*(n-warmup)
	if got := counted.Blocks(); got != want {
		t.Fatalf("tuning generated %d blocks, want %d (warmup %d once + %d runs x %d tail)",
			got, want, warmup, runs, n-warmup)
	}
	// The seed path would have generated runs * n.
	if seed := runs * n; counted.Blocks() >= seed {
		t.Fatalf("tuning generated %d blocks, no better than the seed's %d", counted.Blocks(), seed)
	}
}
