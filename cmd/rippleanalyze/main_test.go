package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/cliflag"
	"ripple/internal/core"
	"ripple/internal/fault"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenModel is a synthetic app whose hot code exceeds the default
// 32KiB L1I, so the analysis finds real eviction windows and the tuned
// plan is non-trivial. Everything downstream of the (model, seed, trace
// length) triple is deterministic.
func goldenModel() workload.Model {
	return workload.Model{
		Name: "golden", Seed: 41,
		Funcs: 700, ServiceFuncs: 40, UtilityFuncs: 10, Levels: 6,
		BlocksMin: 5, BlocksMax: 10, BlockBytesMin: 48, BlockBytesMax: 96,
		PCond: 0.3, PCall: 0.35, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 2, CalleeMax: 5, IndirectFanout: 4,
		ZipfRequest: 0.4, RequestsPerBurst: 4,
	}
}

// fixture writes the golden app's program image and encoded PT trace.
func fixture(t *testing.T) (progPath, ptPath string) {
	t.Helper()
	app, err := workload.Build(goldenModel())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	progPath = filepath.Join(dir, "app.prog")
	pf, err := os.Create(progPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Prog.Save(pf); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	ptPath = filepath.Join(dir, "app.pt")
	tf, err := os.Create(ptPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.EncodeSourceSync(tf, app.Prog, app.Stream(0, 30_000), 0); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	return progPath, ptPath
}

func baseOptions(progPath, ptPath, dir, tag string) options {
	return options{
		Trace:      cliflag.Trace{ProgPath: progPath, PTPath: ptPath},
		Out:        filepath.Join(dir, "plan-"+tag),
		Policy:     "lru",
		Prefetcher: "none",
	}
}

// TestGoldenReportDeterministic: a fixed (app, seed, threshold sweep)
// must produce the committed JSON report byte-for-byte, and -j 1 vs -j 8
// must be byte-identical (parallel tuning may not change any output).
// Regenerate after intentional changes with:
//
//	go test ./cmd/rippleanalyze -run Golden -update
func TestGoldenReportDeterministic(t *testing.T) {
	progPath, ptPath := fixture(t)
	dir := t.TempDir()
	runJSON := func(workers int) []byte {
		t.Helper()
		o := baseOptions(progPath, ptPath, dir, fmt.Sprintf("j%d", workers))
		o.Workers = workers
		o.JSONOut = filepath.Join(dir, fmt.Sprintf("report-j%d.json", workers))
		if _, err := run(o); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(o.JSONOut)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	j1 := runJSON(1)
	j8 := runJSON(8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("-j 1 and -j 8 reports differ:\n-j1: %s\n-j8: %s", j1, j8)
	}

	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, j1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(j1, want) {
		t.Fatalf("report diverged from golden (if intentional, regenerate with -update):\ngot: %s\nwant: %s", j1, want)
	}
}

// TestWarmCacheRerunSkipsSimulation: with -cachedir, a second identical
// invocation must perform zero simulations — every sweep job (baseline
// plus one per threshold) is served from the persistent store.
func TestWarmCacheRerunSkipsSimulation(t *testing.T) {
	progPath, ptPath := fixture(t)
	dir := t.TempDir()
	o := baseOptions(progPath, ptPath, dir, "warm")
	o.Workers = 4
	o.CacheDir = filepath.Join(dir, "cache")

	jobs := int64(len(core.DefaultThresholds())) + 1
	cold, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Computed != jobs || cold.StoreHits != 0 {
		t.Fatalf("cold run: computed=%d storeHits=%d, want %d/0", cold.Computed, cold.StoreHits, jobs)
	}
	warm, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Computed != 0 {
		t.Fatalf("warm rerun simulated %d jobs, want 0", warm.Computed)
	}
	if warm.StoreHits != jobs {
		t.Fatalf("warm rerun: %d store hits, want %d", warm.StoreHits, jobs)
	}
	// The plan files from both runs must be identical.
	coldPlan, err := os.ReadFile(o.Out)
	if err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.Out = filepath.Join(dir, "plan-warm2")
	if _, err := run(o2); err != nil {
		t.Fatal(err)
	}
	warmPlan, err := os.ReadFile(o2.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldPlan, warmPlan) {
		t.Fatal("warm rerun emitted a different plan")
	}
}

// TestRecoverDamagedTrace: with -recover, a corrupted sync-point trace
// analyzes end to end — the plan is produced from the surviving profile
// and the JSON report carries a sub-1 coverage figure. The same damaged
// input must fail in the default strict mode, with the decoder's
// offset-and-kind error.
func TestRecoverDamagedTrace(t *testing.T) {
	app, err := workload.Build(goldenModel())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	progPath := filepath.Join(dir, "app.prog")
	pf, err := os.Create(progPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Prog.Save(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, app.Stream(0, 30_000), 256); err != nil {
		t.Fatal(err)
	}
	damaged, _ := fault.NewInjector(7).Overwrite(buf.Bytes(), 32, buf.Len()/3, buf.Len()/2)
	ptPath := filepath.Join(dir, "app.pt")
	if err := os.WriteFile(ptPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	o := baseOptions(progPath, ptPath, dir, "recover")
	o.Threshold = 0.5 // fixed threshold: no sweep, keep the test fast
	o.JSONOut = filepath.Join(dir, "report.json")
	if _, err := run(o); err == nil || !strings.Contains(err.Error(), "trace: offset ") {
		t.Fatalf("strict mode over a damaged trace: %v", err)
	}
	o.Recover = true
	if _, err := run(o); err != nil {
		t.Fatalf("recover mode failed: %v", err)
	}
	raw, err := os.ReadFile(o.JSONOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Coverage == nil {
		t.Fatal("report has no coverage block")
	}
	if f := rep.Coverage.Fraction(); f <= 0 || f >= 1 {
		t.Fatalf("implausible coverage %v (%+v)", f, rep.Coverage)
	}
	if rep.Coverage.Regions == 0 || rep.TraceBlocks != int(rep.Coverage.Decoded) {
		t.Fatalf("coverage inconsistent with analysis: %+v vs %d trace blocks", rep.Coverage, rep.TraceBlocks)
	}
	if _, err := os.Stat(o.Out); err != nil {
		t.Fatalf("no plan written: %v", err)
	}
}
