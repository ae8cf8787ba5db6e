package trace_test

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// TestDecodeModesPlanIdentity: every way of opening a trace — mapped,
// the ReadAt fallback, and recovery mode over a clean stream — drives
// Analyze and Tune to the byte-identical tuned plan.
func TestDecodeModesPlanIdentity(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "trace-modes", Seed: 23,
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
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, app.Stream(0, 12_000), 256); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	acfg := core.AnalysisConfig{L1I: frontend.DefaultParams().L1I, MaxWindowBlocks: 64}
	acfg.L1I.SizeBytes = 1 << 10
	acfg.L1I.Ways = 2
	tcfg := core.TuneConfig{Params: frontend.DefaultParams(), Thresholds: []float64{0.2, 0.5, 0.8}, WarmupBlocks: 1_000}
	tcfg.Params.L1I = acfg.L1I
	planDigest := func(src blockseq.Source) [32]byte {
		t.Helper()
		a, err := core.Analyze(app.Prog, src, acfg)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := core.TuneParallel(a, src, tcfg, core.ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tuned.BestPlan.Injections) == 0 {
			t.Fatal("test is vacuous: the tuned plan injects nothing")
		}
		var plan bytes.Buffer
		if err := tuned.BestPlan.Save(&plan); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(plan.Bytes())
	}

	want := planDigest(trace.FileSourceOptions(path, app.Prog, trace.FileOptions{}))
	for _, m := range []struct {
		name string
		src  blockseq.Source
	}{
		{"readat", trace.ReadAtSource(path, app.Prog, trace.FileOptions{})},
		{"recover-clean", trace.FileSourceOptions(path, app.Prog, trace.FileOptions{Recover: true})},
	} {
		if got := planDigest(m.src); got != want {
			t.Errorf("%s: plan digest %x, mapped %x", m.name, got, want)
		}
	}
}
