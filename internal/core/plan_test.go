package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
	"ripple/internal/workload"
)

// windowFilterPlan is PlanAt over every window's cue, as the plan was
// built before the cue pairs were ranked: each window whose cue clears
// the threshold is covered, or skipped when the cue runs JIT or kernel
// code, and each distinct (line, cue) pair is injected once.
func windowFilterPlan(a *Analysis, cues []CueChoice, threshold float64) *Plan {
	p := &Plan{
		Program:      a.Prog.Name,
		Threshold:    threshold,
		Injections:   make(map[program.BlockID][]uint64),
		WindowsTotal: a.Windows,
	}
	planned := make(map[refKey]bool)
	for _, c := range cues {
		if c.Probability < threshold {
			continue
		}
		if a.Prog.Block(c.Block).JIT {
			p.SkippedJIT++
			continue
		}
		if a.Prog.Block(c.Block).Kernel {
			p.SkippedKernel++
			continue
		}
		p.WindowsCovered++
		k := refKey{line: c.Line, block: c.Block}
		if planned[k] {
			continue
		}
		planned[k] = true
		p.Injections[c.Block] = append(p.Injections[c.Block], c.Line)
	}
	for _, victims := range p.Injections {
		sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	}
	return p
}

// serialWindowCues picks every window's cue as the analysis did before
// it ranked pairs: serially, one victim line at a time over one count
// array, each window's cue written into its own slot.
func serialWindowCues(a *Analysis) []CueChoice {
	cues := make([]CueChoice, len(a.windows))
	count := make([]uint32, a.Prog.NumBlocks())
	lastWin := make([]int32, a.Prog.NumBlocks())
	var touched []program.BlockID
	for li, line := range a.lines {
		wins := a.lineWindows(int32(li))
		for _, wi := range wins {
			for _, bid := range a.windowBlocks(wi) {
				if lastWin[bid] == wi+1 {
					continue
				}
				lastWin[bid] = wi + 1
				if count[bid] == 0 {
					touched = append(touched, bid)
				}
				count[bid]++
			}
		}
		for _, wi := range wins {
			blocks := a.windowBlocks(wi)
			best := CueChoice{Line: line, Block: program.NoBlock}
			for i := len(blocks) - 1; i >= 0; i-- {
				if p := a.probability(count[blocks[i]], blocks[i]); p > best.Probability {
					best.Block, best.Probability = blocks[i], p
				}
			}
			cues[wi] = best
		}
		for _, bid := range touched {
			count[bid] = 0
		}
		touched = touched[:0]
	}
	return cues
}

// pairThresholds returns the probabilities of n pairs spread over a's
// ranked list, first and last included: thresholds that a pair sits on
// exactly, where a prefix bound off by one shows.
func pairThresholds(a *Analysis, n int) []float64 {
	var out []float64
	for i := 0; i < n && len(a.pairs) > 0; i++ {
		out = append(out, a.pairs[i*(len(a.pairs)-1)/max(n-1, 1)].probability)
	}
	return out
}

// TestPlanAtMatchesWindowFilter: the plan as a prefix of the ranked
// pairs equals, field for field, the plan filtered window by window from
// every window's cue (TestTablesMatchPairMap checks the pairs against a
// plain map), on every catalog app at two trace lengths and over two
// inputs analyzed together, at fixed thresholds and at thresholds equal
// to pair probabilities.
func TestPlanAtMatchesWindowFilter(t *testing.T) {
	fixed := append(DefaultThresholds(), -1, 0, 0.01, 0.05, 0.125, 0.2, 1.0/3, 0.45, 0.55, 2.0/3, 0.9, 0.99, 1, 1.5)
	var plans, skippedJIT, skippedKernel int
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			app := catalogApp(t, name)
			check := func(label string, sources []blockseq.Source) {
				a, err := AnalyzeMulti(app.Prog, sources, DefaultAnalysisConfig())
				if err != nil {
					t.Fatal(err)
				}
				cues := serialWindowCues(a)
				requirePairsMatchCues(t, a, cues)
				for _, th := range slices.Concat(fixed, pairThresholds(a, 7)) {
					got, want := a.PlanAt(th), windowFilterPlan(a, cues, th)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at %v: PlanAt = {%d blocks, %d/%d/%d/%d windows}, window filter {%d blocks, %d/%d/%d/%d windows}",
							label, th, len(got.Injections), got.WindowsCovered, got.SkippedJIT, got.SkippedKernel, got.WindowsTotal,
							len(want.Injections), want.WindowsCovered, want.SkippedJIT, want.SkippedKernel, want.WindowsTotal)
					}
					plans++
					skippedJIT += got.SkippedJIT
					skippedKernel += got.SkippedKernel
				}
			}
			for _, blocks := range []int{20_000, 100_000} {
				check(fmt.Sprintf("%d blocks", blocks), []blockseq.Source{blockseq.SliceSource(app.Trace(0, blocks))})
			}
			check("two inputs", []blockseq.Source{
				blockseq.SliceSource(app.Trace(1, 20_000)),
				blockseq.SliceSource(app.Trace(2, 20_000)),
			})
		})
	}
	t.Logf("%d plans, %d JIT-skipped and %d kernel-skipped windows", plans, skippedJIT, skippedKernel)
	if skippedJIT == 0 || skippedKernel == 0 {
		t.Fatal("test is vacuous: no plan skipped a JIT or a kernel cue")
	}
}

// TestPlanAtAllocs bounds what the ten default thresholds' plans of a
// 50k-block kafka analysis allocate. The counts are deterministic, so the
// bounds are tight: the plans are the ten Injections maps and their
// victim arrays, about 0.53 MB in 60 allocations. Building the plans
// window by window with a (line, block) map per threshold allocated
// 3.9 MB in 16,803 allocations, and one allocation per injected pair or
// per cue block fails the allocation bound.
func TestPlanAtAllocs(t *testing.T) {
	const (
		maxBytes  = 768 << 10
		maxAllocs = 200
	)
	app := catalogApp(t, "kafka")
	a, err := Analyze(app.Prog, blockseq.SliceSource(app.Trace(0, 50_000)), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, th := range DefaultThresholds() {
		a.PlanAt(th)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := after.Mallocs - before.Mallocs
	t.Logf("ten PlanAt: %d B, %d allocs", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("ten PlanAt allocate %d B, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("ten PlanAt allocate %d times, want <= %d", allocs, maxAllocs)
	}
}
