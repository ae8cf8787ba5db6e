package core

import (
	"fmt"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/program"
)

// runInjected is RunPlan the way it ran before the frontend's hint
// table: simulate the program the plan rewrites.
func runInjected(prog *program.Program, src blockseq.Source, cfg TuneConfig, plan *Plan) (frontend.Result, error) {
	return RunPlan(plan.ApplyPreservingLayout(prog), src, cfg, nil)
}

// handPlan names the trace's most executed kernel block, its most
// executed JIT block when the program has JIT code, and its most executed
// other block with an empty victim list, all of which placement skips,
// beside two ordinary cues. It also returns the empty-list cue: a
// program whose own hints there must keep them.
func handPlan(t *testing.T, prog *program.Program, trace []program.BlockID) (*Plan, program.BlockID) {
	t.Helper()
	execs := make([]int, len(prog.Blocks))
	for _, b := range trace {
		execs[b]++
	}
	hottest := func(want func(*program.Block) bool) program.BlockID {
		best := program.NoBlock
		for i := range prog.Blocks {
			if want(&prog.Blocks[i]) && execs[i] > 0 && (best == program.NoBlock || execs[i] > execs[best]) {
				best = program.BlockID(i)
			}
		}
		return best
	}
	victims := []uint64{prog.Blocks[7].FirstLine(), prog.Blocks[len(prog.Blocks)/2].FirstLine()}
	p := &Plan{Program: prog.Name, Threshold: 0.5, Injections: map[program.BlockID][]uint64{}}
	kernel := hottest(func(b *program.Block) bool { return b.Kernel })
	if kernel == program.NoBlock {
		t.Fatalf("%s's trace runs no kernel block", prog.Name)
	}
	p.Injections[kernel] = victims
	if jit := hottest(func(b *program.Block) bool { return b.JIT }); jit != program.NoBlock {
		p.Injections[jit] = victims
	}
	empty := hottest(func(b *program.Block) bool { return !b.JIT && !b.Kernel })
	p.Injections[empty] = []uint64{}
	p.Injections[trace[0]] = victims
	p.Injections[trace[len(trace)/2]] = victims[:1]
	return p, empty
}

// TestRunPlanHintsMatchInjectedProgram: RunPlan simulates a layout-
// preserving plan on the unmodified program through the frontend's
// per-block hint table, and every field of every result equals a run of
// the program ApplyPreservingLayout rewrites. Checked on 50k-block kafka
// and drupal traces (drupal has JIT cues) for every default threshold's
// plan under LRU+FDIP and Random+NLP, and for a hand-made plan with
// kernel, JIT and empty-list cues (also on a program whose empty-list cue
// carries hints of its own) plus the 0.55 plan under both configs with
// accuracy scoring, demote hints and both. The flags act only after the
// hint table's lookup, so they are not crossed with every threshold.
func TestRunPlanHintsMatchInjectedProgram(t *testing.T) {
	type variant struct {
		acc   bool
		hints frontend.HintMode
	}
	plain := []variant{{false, frontend.HintInvalidate}}
	flagged := append(plain, variant{true, frontend.HintInvalidate},
		variant{false, frontend.HintDemote}, variant{true, frontend.HintDemote})
	for _, name := range []string{"kafka", "drupal"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := catalogApp(t, name)
			trace := app.Trace(0, 50_000)
			tr := blockseq.SliceSource(trace)
			a, err := Analyze(app.Prog, tr, DefaultAnalysisConfig())
			if err != nil {
				t.Fatal(err)
			}
			type check struct {
				prog     *program.Program
				plan     *Plan
				variants []variant
			}
			hand, empty := handPlan(t, app.Prog, trace)
			own := app.Prog.WithInjectionsPreservingLayout(map[program.BlockID][]uint64{empty: {app.Prog.Blocks[3].FirstLine()}})
			checks := []check{{app.Prog, hand, flagged}, {own, hand, plain}}
			skippedJIT := 0
			for _, th := range DefaultThresholds() {
				plan := a.PlanAt(th)
				skippedJIT += plan.SkippedJIT
				if th == 0.55 {
					checks = append(checks, check{app.Prog, plan, flagged})
				} else {
					checks = append(checks, check{app.Prog, plan, plain})
				}
			}
			if name == "drupal" && skippedJIT == 0 {
				t.Fatal("drupal's plans skipped no JIT cue")
			}
			for _, c := range checks {
				for _, pp := range [][2]string{{"lru", "fdip"}, {"random", "nlp"}} {
					for _, v := range c.variants {
						cfg := TuneConfig{
							Params: frontend.DefaultParams(), Policy: pp[0], Prefetcher: pp[1],
							MeasureAccuracy: v.acc, Hints: v.hints,
						}
						got, err := RunPlan(c.prog, tr, cfg, c.plan)
						if err != nil {
							t.Fatal(err)
						}
						want, err := runInjected(c.prog, tr, cfg, c.plan)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("th=%g %s+%s acc=%t hints=%d:\n got %+v\nwant %+v", c.plan.Threshold,
								cfg.Policy, cfg.Prefetcher, cfg.MeasureAccuracy, cfg.Hints, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRunPlanRejectsForeignCue: a plan naming a block outside the
// program fails the run instead of panicking.
func TestRunPlanRejectsForeignCue(t *testing.T) {
	prog := lineBlocks(t, 3)
	plan := &Plan{Program: prog.Name, Injections: map[program.BlockID][]uint64{1: {0}, 7: {0}, -2: {1}}}
	cfg := TuneConfig{Params: frontend.DefaultParams()}
	_, err := RunPlan(prog, blockseq.Of(0, 1, 2), cfg, plan)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cue block -2 is outside program %q (3 blocks)", prog.Name)) {
		t.Fatalf("err = %v", err)
	}
}
