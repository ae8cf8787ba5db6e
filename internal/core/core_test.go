package core

import (
	"bytes"
	"math"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/frontend"
	"ripple/internal/isa"
	"ripple/internal/program"
	"ripple/internal/replacement"
)

// oneSet is a single-set, 2-way I-cache: every line contends, so MIN
// evictions are easy to enumerate by hand.
var oneSet = cache.Config{SizeBytes: 128, Ways: 2, LineBytes: 64}

// lineBlocks builds n single-line blocks (one per function, 64-byte
// aligned so block i occupies exactly line i).
func lineBlocks(t *testing.T, n int) *program.Program {
	t.Helper()
	bd := program.NewBuilder("lines")
	for i := 0; i < n; i++ {
		bd.StartFunc("f", false)
		bd.AddBlock(56, isa.TermRet)
	}
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	p.FuncAlign = 64
	p.Layout(0)
	for i := 0; i < n; i++ {
		if got := p.Block(program.BlockID(i)).FirstLine(); got != uint64(i) {
			t.Fatalf("block %d on line %d", i, got)
		}
	}
	return p
}

func acfg(maxWindow int) AnalysisConfig {
	return AnalysisConfig{L1I: oneSet, MaxWindowBlocks: maxWindow}
}

// TestAnalysisHandVerified replays the worked example:
//
//	trace A B C A B C on a 2-way set.
//	MIN evicts B at index 2 (A is nearer) and A at index 4.
//	Window 1: line B, blocks (1,2] = {C}; Window 2: line A, blocks (3,4] = {B}.
//	P(evict B | exec C) = 1/2, P(evict A | exec B) = 1/2.
func TestAnalysisHandVerified(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := []program.BlockID{0, 1, 2, 0, 1, 2}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if a.Windows != 2 {
		t.Fatalf("windows = %d, want 2", a.Windows)
	}
	// A(0) miss, B(1) miss, C(2) miss evicting B, A(3) hit, B(4) miss
	// evicting A, C(5) hit: 4 ideal misses.
	if a.IdealMisses != 4 {
		t.Fatalf("ideal misses = %d, want 4", a.IdealMisses)
	}
	if p := a.Probability(1, 2); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(evict B | exec C) = %v, want 0.5", p)
	}
	if p := a.Probability(0, 1); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(evict A | exec B) = %v, want 0.5", p)
	}
	if p := a.Probability(0, 2); p != 0 {
		t.Fatalf("P(evict A | exec C) = %v, want 0", p)
	}

	cand := a.Candidates(1)
	if len(cand) != 1 || cand[0].Block != 2 {
		t.Fatalf("candidates for line B = %+v", cand)
	}

	// Plans: at threshold 0.5 both windows are covered; at 0.6 none.
	plan := a.PlanAt(0.5)
	if plan.WindowsCovered != 2 || plan.StaticInstructions() != 2 {
		t.Fatalf("plan@0.5: %+v", plan)
	}
	if got := plan.Injections[2]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("cue C should invalidate line B, got %v", plan.Injections[2])
	}
	if got := plan.Injections[1]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("cue B should invalidate line A, got %v", plan.Injections[1])
	}
	empty := a.PlanAt(0.6)
	if empty.WindowsCovered != 0 || len(empty.Injections) != 0 {
		t.Fatalf("plan@0.6 not empty: %+v", empty)
	}
}

func TestAnalysisWindowCap(t *testing.T) {
	prog := lineBlocks(t, 4)
	// Line 0 last used at index 0, evicted late: a long window.
	tr := []program.BlockID{0, 1, 2, 1, 2, 1, 2, 1, 2, 3}
	full, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Analyze(prog, blockseq.SliceSource(tr), acfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// The capped analysis must still find the same windows, but candidate
	// sets shrink to the tail: blocks far from the eviction lose their
	// membership.
	if capped.Windows != full.Windows {
		t.Fatalf("window counts differ: %d vs %d", capped.Windows, full.Windows)
	}
	sum := func(a *Analysis) int {
		n := 0
		for wi := range a.windows {
			n += len(a.windowBlocks(int32(wi)))
		}
		return n
	}
	if sum(capped) >= sum(full) {
		t.Fatalf("cap did not shrink candidate membership: %d vs %d", sum(capped), sum(full))
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	prog := lineBlocks(t, 2)
	if _, err := Analyze(prog, blockseq.Of(), acfg(8)); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := acfg(8)
	bad.L1I.SizeBytes = 100 // not divisible
	if _, err := Analyze(prog, blockseq.Of(0), bad); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestMostEvictedLine(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := []program.BlockID{0, 1, 2, 0, 1, 2, 0, 1, 2}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	line, n := a.MostEvictedLine()
	if n < 1 {
		t.Fatalf("MostEvictedLine found nothing: %d, %d", line, n)
	}
	if got := len(a.Candidates(line)); got == 0 {
		t.Fatal("most-evicted line has no candidates")
	}
}

func TestPlanSaveLoadRoundtrip(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := []program.BlockID{0, 1, 2, 0, 1, 2}
	a, _ := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	plan := a.PlanAt(0.5)
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != plan.Threshold || got.WindowsCovered != plan.WindowsCovered {
		t.Fatal("plan metadata lost in roundtrip")
	}
	if len(got.Injections) != len(plan.Injections) {
		t.Fatal("injections lost in roundtrip")
	}
	for b, v := range plan.Injections {
		gv := got.Injections[b]
		if len(gv) != len(v) || gv[0] != v[0] {
			t.Fatalf("block %d injections differ: %v vs %v", b, gv, v)
		}
	}
	if _, err := LoadPlan(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage plan accepted")
	}
}

func TestExpandVictimsToBlocks(t *testing.T) {
	// A two-line block: expanding a victim in it covers both lines.
	bd := program.NewBuilder("wide")
	bd.StartFunc("f", false)
	bd.AddBlock(128, isa.TermRet) // lines 0 and 1
	prog, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{
		Program:        "wide",
		Threshold:      0.55,
		Injections:     map[program.BlockID][]uint64{0: {0}},
		WindowsTotal:   9,
		WindowsCovered: 5,
		SkippedJIT:     2,
		SkippedKernel:  1,
	}
	wide := p.ExpandVictimsToBlocks(prog)
	if got := wide.Injections[0]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("expanded victims = %v, want [0 1]", got)
	}
	if wide.Program != p.Program || wide.Threshold != p.Threshold ||
		wide.WindowsTotal != p.WindowsTotal || wide.WindowsCovered != p.WindowsCovered ||
		wide.SkippedJIT != p.SkippedJIT || wide.SkippedKernel != p.SkippedKernel {
		t.Fatalf("expanded plan lost its summary: got %+v, want that of %+v", wide, p)
	}
}

// TestHintSavesMissOverLRU is the core mechanism test, hand-verifiable:
// lines X, A, B share a 2-way set; the trace is X A B X. Plain LRU evicts
// the soon-reused X to make room for B (A is dead but more recent), so X
// re-misses: 4 misses. With an invalidation of dead A injected into A's
// own block, B fills A's freed way, X survives, and its re-access hits:
// 3 misses — exactly the eviction the ideal policy would have made.
func TestHintSavesMissOverLRU(t *testing.T) {
	prog := lineBlocks(t, 3) // block i on line i
	const X, A, B = program.BlockID(0), program.BlockID(1), program.BlockID(2)
	tr := []program.BlockID{X, A, B, X}

	params := frontend.DefaultParams()
	params.L1I = oneSet

	base, err := frontend.Run(params, prog, blockseq.SliceSource(tr), frontend.Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if base.L1I.DemandMisses != 4 {
		t.Fatalf("LRU misses = %d, want 4 (X evicted while A kept)", base.L1I.DemandMisses)
	}

	plan := &Plan{Injections: map[program.BlockID][]uint64{A: {prog.Block(A).FirstLine()}}}
	injected := plan.Apply(prog)
	res, err := frontend.Run(params, injected, blockseq.SliceSource(tr), frontend.Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.DemandMisses != 3 {
		t.Fatalf("ripple misses = %d, want 3", res.L1I.DemandMisses)
	}
	if res.L1I.HintFreedFills != 1 || res.Coverage() == 0 {
		t.Fatalf("hint-freed fill not attributed: %+v", res.L1I)
	}
}

// TestRippleAnalysisFindsSelfCue checks that the analysis on the same
// pattern discovers A's self-invalidation: with MIN, A is evicted at B's
// fill, the window is (A, B], and both candidates are plausible cues.
func TestRippleAnalysisFindsSelfCue(t *testing.T) {
	prog := lineBlocks(t, 3)
	const X, A, B = program.BlockID(0), program.BlockID(1), program.BlockID(2)
	var tr []program.BlockID
	for i := 0; i < 50; i++ {
		tr = append(tr, X, A, B, X)
	}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.5)
	found := false
	for _, victims := range plan.Injections {
		for _, v := range victims {
			if v == prog.Block(A).FirstLine() {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("analysis did not plan an invalidation of the dead line; plan=%v", plan.Injections)
	}
}

// smallWorkloadTrace builds a small synthetic app trace for pipeline
// smoke tests.
func smallTuneSetup(t *testing.T) (*program.Program, []program.BlockID) {
	t.Helper()
	prog := lineBlocks(t, 3)
	unit := []program.BlockID{1, 2, 0, 1, 2, 1, 2}
	var tr []program.BlockID
	for i := 0; i < 80; i++ {
		tr = append(tr, unit...)
	}
	return prog, tr
}

func TestTuneSelectsBestThreshold(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.1, 0.3, 0.9},
	}
	res, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Three sweep points, plus possibly the no-injection fallback.
	if len(res.Curve) != 3 && len(res.Curve) != 4 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
	best := res.BestPoint()
	for _, pt := range res.Curve {
		if pt.SpeedupPct > best.SpeedupPct {
			t.Fatalf("best point %.2f%% is not the max (%.2f%%)", best.SpeedupPct, pt.SpeedupPct)
		}
	}
	if res.BestPlan == nil {
		t.Fatal("no best plan")
	}
}

func TestTuneRejectsEmptyThresholds(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, _ := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	_, err := TuneParallel(a, blockseq.SliceSource(tr), TuneConfig{Thresholds: []float64{}, Params: frontend.DefaultParams()}, ParallelOptions{})
	if err == nil {
		t.Fatal("empty threshold list accepted")
	}
}

func TestOptimizePipeline(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	params := frontend.DefaultParams()
	params.L1I = oneSet
	out, err := OptimizeParallel(prog, blockseq.SliceSource(tr), acfg(64), TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.3, 0.6},
	}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected == nil {
		t.Fatal("optimize produced no binary")
	}
	// Either the tuned plan improves the training run (and injects
	// something), or the pipeline fell back to the uninjected binary.
	if out.Tune.BestPoint().SpeedupPct > 0 {
		if out.Injected.StaticInjected() == 0 || out.StaticOverheadPct <= 0 {
			t.Fatal("winning plan has no injections")
		}
	} else if out.Injected.StaticInjected() != 0 {
		t.Fatal("fallback binary still carries injections")
	}
}

func TestDynamicOverheadPct(t *testing.T) {
	r := frontend.Result{Instrs: 1000, HintInstrs: 22}
	if got := DynamicOverheadPct(r); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("DynamicOverheadPct = %v", got)
	}
	if DynamicOverheadPct(frontend.Result{}) != 0 {
		t.Fatal("zero-instr overhead should be 0")
	}
}

func TestAnalyzeMultiAccumulates(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := []program.BlockID{0, 1, 2, 0, 1, 2}
	single, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	double, err := AnalyzeMulti(prog, []blockseq.Source{blockseq.SliceSource(tr), blockseq.SliceSource(tr)}, acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if double.Windows != 2*single.Windows {
		t.Fatalf("windows: %d vs 2x%d", double.Windows, single.Windows)
	}
	if double.TraceBlocks != 2*single.TraceBlocks {
		t.Fatalf("trace blocks: %d vs 2x%d", double.TraceBlocks, single.TraceBlocks)
	}
	// Identical traces double both numerator and denominator: the
	// conditional probabilities are unchanged.
	if p1, p2 := single.Probability(1, 2), double.Probability(1, 2); math.Abs(p1-p2) > 1e-9 {
		t.Fatalf("probability changed under duplication: %v vs %v", p1, p2)
	}
	// And the emitted plans agree.
	a, b := single.PlanAt(0.5), double.PlanAt(0.5)
	if len(a.Injections) != len(b.Injections) {
		t.Fatalf("plans differ: %v vs %v", a.Injections, b.Injections)
	}
}

func TestAnalyzeMultiIndependentCaches(t *testing.T) {
	prog := lineBlocks(t, 3)
	// Two one-block fragments: each replay starts cold, so no evictions
	// can span fragments.
	frags := []blockseq.Source{blockseq.Of(0, 1), blockseq.Of(2, 0)}
	a, err := AnalyzeMulti(prog, frags, acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if a.Windows != 0 {
		t.Fatalf("cross-fragment windows appeared: %d", a.Windows)
	}
	if a.TraceBlocks != 4 {
		t.Fatalf("TraceBlocks = %d", a.TraceBlocks)
	}
}

func TestTuneFallsBackToEmptyPlan(t *testing.T) {
	// A trace with a tiny working set that always fits: every injection
	// can only hurt, so tuning must ship the empty plan.
	prog := lineBlocks(t, 2)
	var tr []program.BlockID
	for i := 0; i < 200; i++ {
		tr = append(tr, 0, 1)
	}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	res, err := TuneParallel(a, blockseq.SliceSource(tr), TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.05},
	}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint().SpeedupPct < 0 {
		t.Fatalf("fallback missing: best speedup %.2f%%", res.BestPoint().SpeedupPct)
	}
	if res.BestPlan.StaticInstructions() != 0 {
		t.Fatalf("fallback plan injects %d instructions", res.BestPlan.StaticInstructions())
	}
}

func TestPlanSkipsKernelCues(t *testing.T) {
	prog := lineBlocks(t, 3)
	prog.Blocks[2].Kernel = true // the cue block of line-B's window
	tr := []program.BlockID{0, 1, 2, 0, 1, 2}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.5)
	if plan.SkippedKernel != 1 {
		t.Fatalf("SkippedKernel = %d, want 1", plan.SkippedKernel)
	}
	if _, ok := plan.Injections[2]; ok {
		t.Fatal("kernel block received an injection")
	}
	// The non-kernel cue (block 1) is still planned.
	if _, ok := plan.Injections[1]; !ok {
		t.Fatal("non-kernel cue lost")
	}
}

// TestPlanThresholdMonotonicity: higher thresholds can only shrink
// coverage and injections.
func TestPlanThresholdMonotonicity(t *testing.T) {
	prog := lineBlocks(t, 4)
	// A varied trace with many windows.
	var tr []program.BlockID
	pat := [][]program.BlockID{{0, 1, 2, 3}, {1, 3, 0, 2}, {2, 0, 1}, {3, 2}}
	for i := 0; i < 150; i++ {
		tr = append(tr, pat[i%len(pat)]...)
	}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	prevCovered := 1 << 30
	prevStatic := 1 << 30
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := a.PlanAt(th)
		if p.WindowsCovered > prevCovered {
			t.Fatalf("coverage grew with threshold at %.1f", th)
		}
		if p.StaticInstructions() > prevStatic {
			t.Fatalf("injections grew with threshold at %.1f", th)
		}
		prevCovered, prevStatic = p.WindowsCovered, p.StaticInstructions()
	}
}

func TestCandidatesSorted(t *testing.T) {
	prog := lineBlocks(t, 4)
	var tr []program.BlockID
	pat := [][]program.BlockID{{0, 1, 2, 3}, {1, 3, 0, 2}, {2, 0, 1}}
	for i := 0; i < 100; i++ {
		tr = append(tr, pat[i%len(pat)]...)
	}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	line, _ := a.MostEvictedLine()
	cand := a.Candidates(line)
	for i := 1; i < len(cand); i++ {
		if cand[i].Probability > cand[i-1].Probability {
			t.Fatal("candidates not sorted by probability")
		}
	}
}

func TestRunPlanShiftVsPreserve(t *testing.T) {
	prog := lineBlocks(t, 3)
	tr := []program.BlockID{0, 1, 2, 0, 1, 2, 0, 1, 2}
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.3)
	if plan.StaticInstructions() == 0 {
		t.Skip("no injections at this threshold")
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{Params: params, Policy: "lru", Prefetcher: "none"}

	preserve, err := RunPlan(prog, blockseq.SliceSource(tr), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShiftLayout = true
	shift, err := RunPlan(prog, blockseq.SliceSource(tr), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Same dynamic hint counts either way; only the layout differs.
	if preserve.HintInstrs != shift.HintInstrs {
		t.Fatalf("hint counts differ: %d vs %d", preserve.HintInstrs, shift.HintInstrs)
	}
	// Preserving placement keeps instruction-fetch footprint identical to
	// the uninjected binary; shifting grows it.
	base, err := RunPlan(prog, blockseq.SliceSource(tr), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if preserve.L1I.DemandAccesses < base.L1I.DemandAccesses {
		t.Fatal("preserve-placement lost fetch accesses")
	}
}

func TestTuneConfigDefaults(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, _ := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	params := frontend.DefaultParams()
	params.L1I = oneSet
	// Empty policy/prefetcher names default to LRU / no prefetch; nil
	// thresholds default to the standard sweep.
	res, err := TuneParallel(a, blockseq.SliceSource(tr), TuneConfig{Params: params}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) < len(DefaultThresholds()) {
		t.Fatalf("curve has %d points, want >= %d", len(res.Curve), len(DefaultThresholds()))
	}
	if res.Baseline.Policy != "lru" || res.Baseline.Prefetcher != "none" {
		t.Fatalf("defaults wrong: %s/%s", res.Baseline.Policy, res.Baseline.Prefetcher)
	}
}

func TestPlanRoundtripKeepsSkipCounters(t *testing.T) {
	p := &Plan{
		Program:        "x",
		Threshold:      0.5,
		Injections:     map[program.BlockID][]uint64{1: {2}},
		WindowsTotal:   10,
		WindowsCovered: 4,
		SkippedJIT:     3,
		SkippedKernel:  2,
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SkippedJIT != 3 || got.SkippedKernel != 2 || got.WindowsTotal != 10 {
		t.Fatalf("counters lost: %+v", got)
	}
}
