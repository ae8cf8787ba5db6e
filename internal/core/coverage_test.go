package core

import (
	"bytes"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/frontend"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// TestAnalyzeRecoveringSourceReportsCoverage is the acceptance path for
// profile-damage surfacing: analyzing a corrupted sync-point trace via a
// recovering source must complete and publish an aggregate coverage
// figure, while strict/clean paths leave Coverage nil or full.
func TestAnalyzeRecoveringSourceReportsCoverage(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "core-coverage", Seed: 23,
		Funcs: 40, ServiceFuncs: 4, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	cfg.L1I.SizeBytes = 1 << 10
	cfg.L1I.Ways = 2

	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, app.Stream(0, 20_000), 256); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// A plain (non-trace) source publishes no coverage.
	plain, err := Analyze(app.Prog, app.Stream(0, 20_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Coverage != nil {
		t.Fatalf("non-trace source published coverage %+v", plain.Coverage)
	}

	// An undamaged recovering source reports full coverage.
	whole, err := Analyze(app.Prog, trace.BytesSource(clean, app.Prog, trace.FileOptions{Recover: true}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Coverage == nil || whole.Coverage.Fraction() != 1 || whole.Coverage.Lost != 0 {
		t.Fatalf("clean recovering source coverage = %+v", whole.Coverage)
	}
	if whole.TraceBlocks != plain.TraceBlocks {
		t.Fatalf("decoded %d blocks, generator produced %d", whole.TraceBlocks, plain.TraceBlocks)
	}

	// Seeded corruption in the stream's middle third: the analysis must
	// still complete, on a strictly smaller profile, and say how much of
	// the declared profile survived.
	damaged, _ := fault.NewInjector(99).Overwrite(clean, 48, len(clean)/3, 2*len(clean)/3)
	a, err := Analyze(app.Prog, trace.BytesSource(damaged, app.Prog, trace.FileOptions{Recover: true}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := a.Coverage
	if cov == nil {
		t.Fatal("recovering source published no coverage")
	}
	if cov.Fraction() >= 1 || cov.Fraction() <= 0 {
		t.Fatalf("implausible coverage fraction %v (%+v)", cov.Fraction(), cov)
	}
	if cov.Lost == 0 || cov.Regions == 0 {
		t.Fatalf("damage not accounted: %+v", cov)
	}
	if cov.Decoded+cov.Lost != cov.Declared {
		t.Fatalf("coverage does not balance: %+v", cov)
	}
	if uint64(a.TraceBlocks) != cov.Decoded {
		t.Fatalf("analysis consumed %d blocks but coverage says %d decoded", a.TraceBlocks, cov.Decoded)
	}
	if a.Windows == 0 {
		t.Fatal("damaged profile produced no eviction windows (test is vacuous)")
	}
}
