package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/fault"
	"ripple/internal/frontend"
	"ripple/internal/program"
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

// TestAnalyzeFileMatchesSlice: the same profile analyzed from the
// materialized slice, the plain file source, and the file source in
// recovery mode over a clean stream must produce identical analyses.
func TestAnalyzeFileMatchesSlice(t *testing.T) {
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
	if fromSlice.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	for _, o := range []trace.FileOptions{{}, {Recover: true}} {
		fromFile, err := Analyze(app.Prog, trace.FileSourceOptions(path, app.Prog, o), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		requireSameAnalysis(t, fromSlice, fromFile)
	}
}

// TestAnalyzeFailingSource: a source that fails on any of the
// analysis's three passes — the execution-count and demand-line pass,
// window accumulation, or cue replay — fails Analyze with the source's
// error, whether the pass fails at Open or mid-stream. The failures
// leave the source intact: a fresh Analyze over it still matches the
// slice analysis.
func TestAnalyzeFailingSource(t *testing.T) {
	app := replayApp(t)
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
	for pass := 1; pass <= 3; pass++ {
		for _, f := range []fault.SourceFaults{
			{Pass: pass, OpenErr: true},
			{Pass: pass, AfterNext: 100},
		} {
			_, err := Analyze(app.Prog, fault.NewSource(src, f), cfg)
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("fault %+v: Analyze returned %v, want ErrInjected", f, err)
			}
		}
	}

	fromSlice, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Analyze(app.Prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromSlice.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	requireSameAnalysis(t, fromSlice, fromFile)
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

// windowList builds a sparse window list: 9 windows of span 200 spread
// over a trace of the given length.
func windowList(blocks int32) []window {
	const span, stride = 200, 2_000
	var ws []window
	for end := int32(stride); end < blocks; end += stride {
		ws = append(ws, window{trace: 0, start: end - span, end: end})
	}
	return ws
}

// TestWindowReplayDecodeBudget: serving a window list takes one forward
// pass that stops at the last window — it decodes the prefix through
// the last window's end (plus at most one decode-ahead batch), never
// the rest of the trace or any block twice — and serves the real trace
// blocks from its ring.
func TestWindowReplayDecodeBudget(t *testing.T) {
	app := replayApp(t)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(t, app, tr)
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})

	windows := windowList(blocks)
	counting := src.(trace.DecodeCounting)
	visited := 0
	err := replayWindows(src, windows, 256, func(w window, blocks []program.BlockID) {
		if len(blocks) != int(w.end-w.start) {
			t.Fatalf("window (%d, %d] served %d blocks", w.start, w.end, len(blocks))
		}
		for i, bid := range blocks {
			if ti := w.start + 1 + int32(i); bid != tr[ti] {
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
	// The decoder fills a 512-block batch ahead of the consumer.
	prefix := uint64(windows[len(windows)-1].end) + 1
	if decoded := counting.DecodedBlocks(); decoded < prefix || decoded >= prefix+512 {
		t.Fatalf("replay decoded %d blocks, want the %d-block prefix plus less than one 512-block batch", decoded, prefix)
	}
}
