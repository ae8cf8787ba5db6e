package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// observable output: summary counters, the ranked cue pairs, and the
// plans at a sweep of thresholds.
func requireSameAnalysis(t *testing.T, a, b *Analysis) {
	t.Helper()
	if a.TraceBlocks != b.TraceBlocks || a.Windows != b.Windows || a.IdealMisses != b.IdealMisses {
		t.Fatalf("summaries differ: {%d %d %d} vs {%d %d %d}",
			a.TraceBlocks, a.Windows, a.IdealMisses, b.TraceBlocks, b.Windows, b.IdealMisses)
	}
	if pa, pb := rankedPairs(a), rankedPairs(b); !slices.Equal(pa, pb) {
		t.Fatalf("ranked cue pairs differ: %d vs %d pairs", len(pa), len(pb))
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

// TestAnalyzeFailingSource: the analysis reads its source in one pass,
// so a source that fails on that pass, at Open or mid-stream, fails
// Analyze with the source's error, and a fault armed for a second pass is
// never reached. The failures leave the source intact: a fresh Analyze
// over it still matches the slice analysis.
func TestAnalyzeFailingSource(t *testing.T) {
	app := replayApp(t)
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
	for _, f := range []fault.SourceFaults{
		{Pass: 1, OpenErr: true},
		{Pass: 1, AfterNext: 100},
	} {
		_, err := Analyze(app.Prog, fault.NewSource(src, f), cfg)
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("fault %+v: Analyze returned %v, want ErrInjected", f, err)
		}
	}

	fromSlice, err := Analyze(app.Prog, blockseq.SliceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromSlice.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	for _, f := range []fault.SourceFaults{
		{Pass: 2, OpenErr: true},
		{Pass: 2, AfterNext: 100},
	} {
		fromFile, err := Analyze(app.Prog, fault.NewSource(src, f), cfg)
		if err != nil {
			t.Fatalf("fault %+v: Analyze returned %v, want no error", f, err)
		}
		requireSameAnalysis(t, fromSlice, fromFile)
	}
}

// TestAnalyzeOpenCountFlat: a full analysis of a file source costs
// exactly one file open and decodes each of the trace's blocks once.
func TestAnalyzeOpenCountFlat(t *testing.T) {
	app := replayApp(t)
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
	before := trace.FileOpens()
	a, err := Analyze(app.Prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	if n := trace.FileOpens() - before; n != 1 {
		t.Fatalf("analysis performed %d file opens, want 1", n)
	}
	if n := src.(trace.DecodeCounting).DecodedBlocks(); n != uint64(len(tr)) {
		t.Fatalf("analysis decoded %d blocks, want the trace's %d", n, len(tr))
	}
}
