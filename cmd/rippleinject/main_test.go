package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/cliflag"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// writeProgram saves a synthetic program image, whose hot code exceeds
// the default 32KiB L1I, and returns its path alongside the app.
func writeProgram(t *testing.T, dir string) (string, *workload.App) {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "inject", Seed: 99,
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
	path := filepath.Join(dir, "app.prog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := app.Prog.Save(f); err != nil {
		t.Fatal(err)
	}
	return path, app
}

// writePlan saves a plan injecting one victim line into each cue block.
func writePlan(t *testing.T, path string, cues ...program.BlockID) {
	t.Helper()
	plan := &core.Plan{Program: "other", Threshold: 0.5, Injections: map[program.BlockID][]uint64{}}
	for _, c := range cues {
		plan.Injections[c] = []uint64{1}
	}
	savePlan(t, path, plan)
}

// savePlan writes plan to path.
func savePlan(t *testing.T, path string, plan *core.Plan) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := plan.Save(f); err != nil {
		t.Fatal(err)
	}
}

// TestPlanForAnotherProgramFails: a plan whose cue blocks lie outside the
// program — made for a larger program, or corrupt with a negative ID —
// is rejected with an error naming the block and the program's size,
// and no image is written. A plan within range applies.
func TestPlanForAnotherProgramFails(t *testing.T) {
	dir := t.TempDir()
	progPath, app := writeProgram(t, dir)
	prog := app.Prog
	n := program.BlockID(prog.NumBlocks())
	for _, c := range []struct {
		name string
		cues []program.BlockID
		bad  program.BlockID
	}{
		{"past-end", []program.BlockID{0, n + 269, n}, n},
		{"negative", []program.BlockID{-1, 1}, -1},
	} {
		planPath := filepath.Join(dir, c.name+".plan")
		writePlan(t, planPath, c.cues...)
		out := filepath.Join(dir, c.name+".prog")
		err := run(progPath, planPath, out)
		want := fmt.Sprintf("cue block %d is outside program %q (%d blocks)", c.bad, prog.Name, n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: run returned %v, want an error containing %q", c.name, err, want)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Fatalf("%s: rejected plan still wrote %s (%v)", c.name, out, statErr)
		}
	}

	planPath := filepath.Join(dir, "ok.plan")
	writePlan(t, planPath, 0, n-1)
	if err := run(progPath, planPath, filepath.Join(dir, "ok.prog")); err != nil {
		t.Fatalf("in-range plan: %v", err)
	}
}

// TestImageSimulatesAsTuned: the written image places the plan the way
// rippleanalyze tunes it, so the trace recorded on the original program
// decodes against the image directly, and simulating the image gives
// core.RunPlan's cycles for the plan.
func TestImageSimulatesAsTuned(t *testing.T) {
	dir := t.TempDir()
	progPath, app := writeProgram(t, dir)
	src := app.Stream(0, 20_000)
	a, err := core.Analyze(app.Prog, src, core.DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.5)
	if len(plan.Injections) == 0 {
		t.Fatal("fixture yields an empty plan")
	}
	planPath, out := filepath.Join(dir, "app.plan"), filepath.Join(dir, "injected.prog")
	savePlan(t, planPath, plan)
	if err := run(progPath, planPath, out); err != nil {
		t.Fatal(err)
	}
	injected, err := cliflag.LoadProgram(out)
	if err != nil {
		t.Fatal(err)
	}
	var pt bytes.Buffer
	if _, err := trace.EncodeSourceSync(&pt, app.Prog, src, 0); err != nil {
		t.Fatal(err)
	}

	cfg := core.TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
	want, err := core.RunPlan(app.Prog, src, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunPlan(injected, trace.BytesSource(pt.Bytes(), injected, trace.FileOptions{}), cfg, nil)
	if err != nil {
		t.Fatalf("simulating the image on the original trace: %v", err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("image simulated %d cycles, core.RunPlan %d", got.Cycles, want.Cycles)
	}
}
