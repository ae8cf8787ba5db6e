package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/core"
	"ripple/internal/program"
	"ripple/internal/workload"
)

// writeProgram saves a small synthetic program image and returns its
// path alongside the program.
func writeProgram(t *testing.T, dir string) (string, *program.Program) {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "inject", Seed: 99,
		Funcs: 40, ServiceFuncs: 4, UtilityFuncs: 4, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
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
	return path, app.Prog
}

// writePlan saves a plan injecting one victim line into each cue block.
func writePlan(t *testing.T, path string, cues ...program.BlockID) {
	t.Helper()
	plan := &core.Plan{Program: "other", Threshold: 0.5, Injections: map[program.BlockID][]uint64{}}
	for _, c := range cues {
		plan.Injections[c] = []uint64{1}
	}
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
	progPath, prog := writeProgram(t, dir)
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
