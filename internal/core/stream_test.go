package core

import (
	"slices"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/workload"
)

// TestAnalyzeStreamMatchesSlice drives the whole analysis (MIN replay,
// window scan, cue selection) from a walker-backed streaming source and
// from the materialized trace, and requires identical output.
func TestAnalyzeStreamMatchesSlice(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "core-stream", Seed: 17,
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
	const blocks = 20_000
	cfg := AnalysisConfig{
		L1I:             frontend.DefaultParams().L1I,
		MaxWindowBlocks: 64, // small cap so windows get clamped
	}
	// Shrink the cache until even the tiny app's hot set thrashes.
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	fromStream, err := Analyze(app.Prog, app.Stream(0, blocks), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSlice, err := Analyze(app.Prog, blockseq.SliceSource(app.Trace(0, blocks)), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if fromStream.TraceBlocks != fromSlice.TraceBlocks ||
		fromStream.Windows != fromSlice.Windows ||
		fromStream.IdealMisses != fromSlice.IdealMisses {
		t.Fatalf("analysis summaries differ: stream {%d %d %d} vs slice {%d %d %d}",
			fromStream.TraceBlocks, fromStream.Windows, fromStream.IdealMisses,
			fromSlice.TraceBlocks, fromSlice.Windows, fromSlice.IdealMisses)
	}
	if fromStream.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	if sp, zp := rankedPairs(fromStream), rankedPairs(fromSlice); !slices.Equal(sp, zp) {
		t.Fatalf("ranked cue pairs differ: %d vs %d pairs", len(sp), len(zp))
	}
	for _, th := range []float64{0.2, 0.5, 0.8} {
		a, b := fromStream.PlanAt(th), fromSlice.PlanAt(th)
		if a.WindowsCovered != b.WindowsCovered || len(a.Injections) != len(b.Injections) {
			t.Fatalf("plans at %.1f differ: %d/%d windows, %d/%d blocks",
				th, a.WindowsCovered, b.WindowsCovered, len(a.Injections), len(b.Injections))
		}
		for blk, victims := range a.Injections {
			bv := b.Injections[blk]
			if len(victims) != len(bv) {
				t.Fatalf("plan at %.1f block %d differs: %v vs %v", th, blk, victims, bv)
			}
			for j := range victims {
				if victims[j] != bv[j] {
					t.Fatalf("plan at %.1f block %d differs: %v vs %v", th, blk, victims, bv)
				}
			}
		}
	}
}
