package main

import (
	"bytes"
	"crypto/sha256"
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
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/runner"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture writes a synthetic app's program image, a sync-pointed trace
// of it, and a damaged copy of that trace. The app's hot code exceeds
// the default 32KiB L1I, so every configuration misses.
func fixture(t *testing.T) (progPath, ptPath, damagedPath string) {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "simgolden", Seed: 41,
		Funcs: 700, ServiceFuncs: 40, UtilityFuncs: 10, Levels: 6,
		BlocksMin: 5, BlocksMax: 10, BlockBytesMin: 48, BlockBytesMax: 96,
		PCond: 0.3, PCall: 0.35, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 2, CalleeMax: 5, IndirectFanout: 4,
		ZipfRequest: 0.4, RequestsPerBurst: 4,
	})
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
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, app.Stream(0, 20_000), 256); err != nil {
		t.Fatal(err)
	}
	ptPath = filepath.Join(dir, "app.pt")
	if err := os.WriteFile(ptPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, _ := fault.NewInjector(7).Overwrite(buf.Bytes(), 32, buf.Len()/3, buf.Len()/2)
	damagedPath = filepath.Join(dir, "damaged.pt")
	if err := os.WriteFile(damagedPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	return progPath, ptPath, damagedPath
}

// goldenCases are the invocations the golden pins, in file order.
func goldenCases(progPath, ptPath, damagedPath string) []struct {
	name string
	o    options
} {
	base := options{Trace: cliflag.Trace{ProgPath: progPath, PTPath: ptPath}, Policy: "lru", Prefetcher: "fdip", Limit: -1}
	single := base
	single.Accuracy, single.Ideal = true, true
	jsonOut := base
	jsonOut.Prefetcher, jsonOut.JSON = "nlp", true
	sweep := base
	sweep.Policy, sweep.Prefetcher, sweep.Workers = "lru,srrip", "none,fdip", 2
	recovered := base
	recovered.PTPath, recovered.Recover = damagedPath, true
	return []struct {
		name string
		o    options
	}{
		{"single", single},
		{"json", jsonOut},
		{"sweep", sweep},
		{"recover", recovered},
	}
}

func runOutput(t *testing.T, o options) []byte {
	t.Helper()
	var out bytes.Buffer
	o.Stdout = &out
	if err := run(o); err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
	return out.Bytes()
}

// TestGoldenOutputs: a fixed (app, seed, trace) must produce the
// committed report byte-for-byte for a single configuration (with
// -accuracy and -ideal), -json, a 2x2 sweep, and -recover over a
// damaged trace. Regenerate after intentional changes with:
//
//	go test ./cmd/ripplesim -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	progPath, ptPath, damagedPath := fixture(t)
	var got bytes.Buffer
	for _, c := range goldenCases(progPath, ptPath, damagedPath) {
		got.WriteString("== " + c.name + " ==\n")
		got.Write(runOutput(t, c.o))
	}
	golden := filepath.Join("testdata", "outputs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("outputs diverged from golden (if intentional, regenerate with -update):\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestRecoverConflictsAndStrictFailure: the damaged trace fails in
// strict mode with the decoder's offset-and-kind error.
func TestRecoverConflictsAndStrictFailure(t *testing.T) {
	progPath, _, damagedPath := fixture(t)
	o := options{Trace: cliflag.Trace{ProgPath: progPath, PTPath: damagedPath}, Policy: "lru", Prefetcher: "fdip", Limit: -1}
	if err := run(o); err == nil || !strings.Contains(err.Error(), "trace: offset ") {
		t.Fatalf("strict run over damaged trace: %v", err)
	}
}

// TestPlanForAnotherProgramFails: -plan with a cue block outside the
// simulated program fails with an error naming the block and the
// program's size, in single-configuration and sweep mode alike.
func TestPlanForAnotherProgramFails(t *testing.T) {
	progPath, ptPath, _ := fixture(t)
	prog, err := cliflag.LoadProgram(progPath)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumBlocks()
	plan := &core.Plan{Program: "other", Threshold: 0.5, Injections: map[program.BlockID][]uint64{
		0:                       {1},
		program.BlockID(n + 17): {1},
	}}
	planPath := filepath.Join(t.TempDir(), "other.plan")
	f, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	single := options{Trace: cliflag.Trace{ProgPath: progPath, PTPath: ptPath}, PlanPath: planPath, Policy: "lru", Prefetcher: "fdip", Limit: -1}
	sweep := single
	sweep.Policy = "lru,srrip"
	for name, o := range map[string]options{"single": single, "sweep": sweep} {
		err := run(o)
		want := fmt.Sprintf("cue block %d is outside program %q (%d blocks)", n+17, prog.Name, n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: run returned %v, want an error containing %q", name, err, want)
		}
	}
}

// TestPlanSimulatesAsTuned: -plan simulates a plan in the placement
// rippleanalyze tunes it in (core.RunPlan's padding placement), in
// single-configuration and sweep mode, and -json prints one parseable
// document; only the text report names the applied plan.
func TestPlanSimulatesAsTuned(t *testing.T) {
	progPath, ptPath, _ := fixture(t)
	tr := cliflag.Trace{ProgPath: progPath, PTPath: ptPath}
	prog, src, _, err := tr.Load()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, src, core.DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.5)
	if len(plan.Injections) == 0 {
		t.Fatal("fixture yields an empty plan")
	}
	planPath := filepath.Join(t.TempDir(), "app.plan")
	f, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := core.RunPlan(prog, src, core.TuneConfig{
		Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip",
	}, plan)
	if err != nil {
		t.Fatal(err)
	}

	single := options{Trace: tr, PlanPath: planPath, Policy: "lru", Prefetcher: "fdip", JSON: true, Limit: -1}
	var one struct{ Cycles uint64 }
	if err := json.Unmarshal(runOutput(t, single), &one); err != nil {
		t.Fatalf("single -plan -json: %v", err)
	}
	sweep := single
	sweep.Policy = "lru,srrip"
	var many []struct{ Cycles uint64 }
	if err := json.Unmarshal(runOutput(t, sweep), &many); err != nil {
		t.Fatalf("sweep -plan -json: %v", err)
	}
	if one.Cycles != want.Cycles || many[0].Cycles != want.Cycles {
		t.Fatalf("-plan simulated %d cycles (sweep %d), core.RunPlan %d", one.Cycles, many[0].Cycles, want.Cycles)
	}

	single.JSON = false
	if out := runOutput(t, single); !bytes.HasPrefix(out, []byte("applied plan: ")) {
		t.Fatalf("text report does not name the plan:\n%s", out)
	}
}

// TestSweepStoreSignaturePinned: a sweep stores each run under the rsim1
// key that existing result stores hold, written out here by hand from the
// input files' SHA-256, so a change to how the sweep builds its runs
// cannot silently orphan those stores.
func TestSweepStoreSignaturePinned(t *testing.T) {
	progPath, ptPath, _ := fixture(t)
	dir := t.TempDir()
	runOutput(t, options{
		Trace:  cliflag.Trace{ProgPath: progPath, PTPath: ptPath},
		Policy: "lru,srrip", Prefetcher: "none,fdip", Limit: -1, Workers: 2, CacheDir: dir,
	})
	sha := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	sig := fmt.Sprintf("rsim1|prog=%s|pt=%s|plan=none|params=%+v|warmup=0|acc=false|demote=false|pol=lru|pf=none",
		sha(progPath), sha(ptPath), frontend.DefaultParams())
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := store.Lookup(sig); st != runner.StatusHit {
		t.Fatalf("no stored result under %s (status %v)", sig, st)
	}
}
