package frontend

import (
	"runtime"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/bpred"
	"ripple/internal/cache"
	"ripple/internal/isa"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// prefetchNLP builds a degree-1 next-line prefetcher for tests.
func prefetchNLP(prog *program.Program) prefetch.Prefetcher {
	return prefetch.NewNLP(prog, 1)
}

// smallParams shrinks the L1I to a 2-way, 2-set cache so evictions are
// easy to force, with a deterministic penalty model.
func smallParams() Params {
	p := DefaultParams()
	p.L1I = cache.Config{SizeBytes: 256, Ways: 2, LineBytes: 64}
	p.BaseCPI = 1
	p.HintCPI = 0
	return p
}

// loopProgram builds one function: blocks b0..b3 of one line each,
// b3 jumps back to b0 via the walker-free trace we construct by hand.
func loopProgram(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("loop")
	bd.StartFunc("f", false)
	var ids []program.BlockID
	for i := 0; i < 5; i++ {
		term := isa.TermJump
		if i == 4 {
			term = isa.TermRet
		}
		ids = append(ids, bd.AddBlock(64, term))
	}
	for i := 0; i < 4; i++ {
		bd.SetJump(ids[i], ids[i+1])
	}
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func trace(blocks ...program.BlockID) blockseq.SliceSource { return blockseq.Of(blocks...) }

func TestCycleAccountingExact(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	// Two distinct blocks, each 64B = 16 instructions, both cold-miss
	// and hit L2 (hierarchy prewarmed): cycles = 32*1 + 2*12.
	res, err := Run(p, prog, trace(0, 1), Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs != 32 {
		t.Fatalf("Instrs = %d", res.Instrs)
	}
	if res.L1I.DemandMisses != 2 || res.L2Hits != 2 {
		t.Fatalf("misses=%d l2=%d", res.L1I.DemandMisses, res.L2Hits)
	}
	want := uint64(32 + 2*12)
	if res.Cycles != want {
		t.Fatalf("Cycles = %d, want %d", res.Cycles, want)
	}
	if got := res.IPC(); got != 32.0/float64(want) {
		t.Fatalf("IPC = %v", got)
	}
}

func TestWithinLineCoalescing(t *testing.T) {
	p := smallParams()
	// One block accessed twice in a row: second execution stays within
	// the same line and coalesces (no second probe), so DemandAccesses
	// is 1 for the pair.
	prog := loopProgram(t)
	res, err := Run(p, prog, trace(0, 0), Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.DemandAccesses != 1 {
		t.Fatalf("DemandAccesses = %d, want 1 (coalesced)", res.L1I.DemandAccesses)
	}
}

func TestDemandLinesMatchesSimulator(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "fe-tiny", Seed: 3,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 3,
		BlocksMin: 3, BlocksMax: 6, BlockBytesMin: 16, BlockBytesMax: 96,
		PCond: 0.3, PCall: 0.2, PICall: 0.05, PIJump: 0.02,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 2, IndirectFanout: 2,
		ZipfRequest: 0.9, RequestsPerBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 5000)
	lines, blockOf, err := DemandLines(app.Prog, blockseq.SliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(blockOf) {
		t.Fatal("lines/blockOf length mismatch")
	}
	res, err := Run(DefaultParams(), app.Prog, blockseq.SliceSource(tr), Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(lines)) != res.L1I.DemandAccesses {
		t.Fatalf("DemandLines has %d accesses, simulator issued %d", len(lines), res.L1I.DemandAccesses)
	}
	// blockOf indexes are monotonically nondecreasing and in range.
	for i := 1; i < len(blockOf); i++ {
		if blockOf[i] < blockOf[i-1] || int(blockOf[i]) >= len(tr) {
			t.Fatalf("blockOf[%d] = %d invalid", i, blockOf[i])
		}
	}
	// No two consecutive identical lines (coalescing invariant).
	for i := 1; i < len(lines); i++ {
		if lines[i] == lines[i-1] {
			t.Fatalf("consecutive duplicate line at %d", i)
		}
	}
}

func TestHintInvalidateForcesEviction(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	victim := prog.Block(0).FirstLine()
	// Inject into block 1 an invalidation of block 0's line.
	inj := prog.WithInjections(map[program.BlockID][]uint64{1: {victim}})
	// Trace: 0 (fill), 1 (fetch + invalidate 0), 0 again (must re-miss).
	res, err := Run(p, inj, trace(0, 1, 0), Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	if res.HintInstrs != 1 {
		t.Fatalf("HintInstrs = %d", res.HintInstrs)
	}
	if res.L1I.HintInvalidations != 1 {
		t.Fatalf("HintInvalidations = %d", res.L1I.HintInvalidations)
	}
	// Block 0 misses twice: cold + after invalidation.
	// (Note the injected block 1 may span an extra line due to the hint.)
	wantMisses := res.L1I.DemandMisses
	if wantMisses < 3 {
		t.Fatalf("DemandMisses = %d, want at least 3 (0 cold, 1 cold, 0 again)", wantMisses)
	}
	// The refill after invalidation is attributed to Ripple.
	if res.L1I.HintFreedFills != 1 {
		t.Fatalf("HintFreedFills = %d", res.L1I.HintFreedFills)
	}
	if res.Coverage() == 0 {
		t.Fatal("coverage = 0 despite a hint-freed fill")
	}
}

func TestHintDemoteKeepsLineUntilEviction(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	victim := prog.Block(0).FirstLine()
	inj := prog.WithInjections(map[program.BlockID][]uint64{1: {victim}})
	// 0 fill, 1 fetch+demote(0), 0 again: the line is still resident
	// under demote, so the third access HITS.
	res, err := Run(p, inj, trace(0, 1, 0), Options{Policy: replacement.NewLRU(), Hints: HintDemote})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.Demotions != 1 {
		t.Fatalf("Demotions = %d", res.L1I.Demotions)
	}
	// Cold misses: block 0's line, plus block 1's two lines (the injected
	// hint pushes it over a line boundary). The re-access of block 0 must
	// HIT: demote keeps the line resident, unlike invalidate.
	if res.L1I.DemandMisses != 3 {
		t.Fatalf("DemandMisses = %d, want 3 cold misses", res.L1I.DemandMisses)
	}
	if hits := res.L1I.DemandAccesses - res.L1I.DemandMisses; hits != 1 {
		t.Fatalf("demoted line re-access did not hit (hits=%d)", hits)
	}
}

func TestWarmupExcludesCounters(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 3, 0, 1, 2, 3)
	full, err := Run(p, prog, tr, Options{Policy: replacement.NewLRU()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(p, prog, tr, Options{Policy: replacement.NewLRU(), WarmupBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Blocks != 4 || warm.Instrs != full.Instrs/2 {
		t.Fatalf("post-warmup blocks=%d instrs=%d", warm.Blocks, warm.Instrs)
	}
	if warm.Cycles >= full.Cycles {
		t.Fatal("warmup did not reduce measured cycles")
	}
	if warm.L1I.DemandAccesses != 4 {
		t.Fatalf("post-warmup demand accesses = %d", warm.L1I.DemandAccesses)
	}
}

// TestAccessEventsWithoutPrefetcherAreDemandLines: with no prefetcher a
// run's access stream is exactly the demand-line expansion of its trace,
// one event per L1I demand access.
func TestAccessEventsWithoutPrefetcherAreDemandLines(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 0, 1)
	newOpts := func() (Options, error) { return Options{Policy: replacement.NewLRU()}, nil }
	opts, _ := newOpts()
	res, err := Run(p, prog, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	lines, _, err := DemandLines(prog, tr)
	if err != nil {
		t.Fatal(err)
	}
	got := drainEvents(t, AccessEvents(p, prog, tr, newOpts))
	if len(got) != len(lines) || uint64(len(got)) != res.L1I.DemandAccesses {
		t.Fatalf("%d events, %d demand lines, %d demand accesses", len(got), len(lines), res.L1I.DemandAccesses)
	}
	for i, e := range got {
		if e.Prefetch || e.Line != lines[i] {
			t.Fatalf("event %d = %+v, want demand line %#x", i, e, lines[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	app, _ := workload.Build(workload.Model{
		Name: "det", Seed: 8,
		Funcs: 25, ServiceFuncs: 3, UtilityFuncs: 2, Levels: 3,
		BlocksMin: 3, BlocksMax: 6, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.2, PICall: 0.05, PIJump: 0.02,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 2, IndirectFanout: 2,
		ZipfRequest: 0.9, RequestsPerBurst: 1,
	})
	tr := blockseq.SliceSource(app.Trace(0, 3000))
	run := func() Result {
		pol, _ := replacement.New("random")
		r, err := Run(DefaultParams(), app.Prog, tr, Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.L1I.DemandMisses != b.L1I.DemandMisses {
		t.Fatal("identical runs diverged (random policy must be seeded deterministically)")
	}
}

func TestSpeedupAndIdealCycles(t *testing.T) {
	base := Result{Cycles: 1100, Instrs: 1000}
	faster := Result{Cycles: 1000, Instrs: 1000}
	if got := Speedup(base, faster); got < 9.99 || got > 10.01 {
		t.Fatalf("Speedup = %v, want 10", got)
	}
	p := DefaultParams()
	if IdealCycles(p, 1000) != uint64(1000*p.BaseCPI) {
		t.Fatal("IdealCycles wrong")
	}
}

func TestAccuracyMetricsOnScriptedRun(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	// Five one-line blocks in a 2-way single... 2-set cache: blocks 0,2,4
	// collide in one set (lines 0,2,4 -> set 0), blocks 1,3 in the other.
	tr := trace(0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0)
	res, err := Run(p, prog, tr, Options{Policy: replacement.NewLRU(), MeasureAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyEvictions == 0 {
		t.Fatal("no evictions scored in a thrashing trace")
	}
	if res.PolicyOptimal > res.PolicyEvictions {
		t.Fatal("optimal count exceeds eviction count")
	}
}

// TestLatePrefetchAccounting hand-computes the in-flight prefetch model:
// an NLP prefetch issued one block ahead has not arrived when the demand
// lands (8 base cycles < 12-cycle L2 fill), so the access counts as a late
// miss and stalls exactly for the remaining latency.
func TestLatePrefetchAccounting(t *testing.T) {
	p := smallParams()
	p.BaseCPI = 0.5 // 16-instr blocks take 8 cycles
	prog := loopProgram(t)
	nlp := prefetchNLP(prog)
	res, err := Run(p, prog, trace(3, 0, 1), Options{Policy: replacement.NewLRU(), Prefetcher: nlp})
	if err != nil {
		t.Fatal(err)
	}
	// b3 cold (12) -> 20 after base; b0 cold (12) -> 40 after base; NLP's
	// line-1 prefetch issued at 32 is ready at 44, demand arrives at 40:
	// late by 4; final base 8 -> 52.
	if res.LateMisses != 1 {
		t.Fatalf("LateMisses = %d, want 1", res.LateMisses)
	}
	if res.Cycles != 52 {
		t.Fatalf("Cycles = %d, want 52", res.Cycles)
	}
	if res.L1I.DemandMisses != 2 {
		t.Fatalf("DemandMisses = %d, want 2 (late prefetch is a tag hit)", res.L1I.DemandMisses)
	}
	// MPKI counts the late access as a miss.
	wantMPKI := float64(3) / float64(res.Instrs) * 1000
	if d := res.MPKI() - wantMPKI; d > 1e-9 || d < -1e-9 {
		t.Fatalf("MPKI = %v, want %v", res.MPKI(), wantMPKI)
	}
}

// TestTIFSMissFeedback wires the temporal prefetcher into the frontend
// and checks that the second traversal of a repeating miss sequence gets
// covered by replayed prefetches.
func TestTIFSMissFeedback(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	// Thrash the 2-way sets with a 5-line loop so every access misses
	// under LRU; TIFS should learn the miss stream on lap one and prefetch
	// it on later laps.
	var tr blockseq.SliceSource
	for lap := 0; lap < 6; lap++ {
		tr = append(tr, 0, 1, 2, 3, 4)
	}
	tifs := prefetch.NewTIFS(prog, 256, 4)
	res, err := Run(p, prog, tr, Options{Policy: replacement.NewLRU(), Prefetcher: tifs})
	if err != nil {
		t.Fatal(err)
	}
	if tifs.Replays == 0 || tifs.Issued == 0 {
		t.Fatalf("TIFS never replayed: %+v", tifs)
	}
	// Prefetch fills must appear in the cache stats.
	if res.L1I.PrefetchFills == 0 {
		t.Fatal("no prefetch fills recorded")
	}
}

func TestFDIPIntegrationReportsBranchMPKI(t *testing.T) {
	app, _ := workload.Build(workload.Model{
		Name: "fdip-int", Seed: 12,
		Funcs: 40, ServiceFuncs: 4, UtilityFuncs: 4, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.7,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
	tr := blockseq.SliceSource(app.Trace(0, 20_000))
	pf, err := prefetch.New("fdip", app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultParams(), app.Prog, tr, Options{Policy: replacement.NewLRU(), Prefetcher: pf})
	if err != nil {
		t.Fatal(err)
	}
	if res.BranchMPKI <= 0 {
		t.Fatal("FDIP run reported no branch mispredictions")
	}
	if res.L1I.PrefetchFills == 0 {
		t.Fatal("FDIP issued no prefetch fills")
	}
}

func TestPrefetchReducesStallsNotJustMisses(t *testing.T) {
	app, _ := workload.Build(workload.Model{
		Name: "pf-cmp", Seed: 13,
		Funcs: 120, ServiceFuncs: 8, UtilityFuncs: 6, Levels: 5,
		BlocksMin: 4, BlocksMax: 9, BlockBytesMin: 24, BlockBytesMax: 80,
		PCond: 0.3, PCall: 0.28, PICall: 0.04, PIJump: 0.02,
		PLoopBack: 0.1, PBiasStrong: 0.85,
		CalleeMin: 2, CalleeMax: 4, IndirectFanout: 3,
		ZipfRequest: 0.9, RequestsPerBurst: 2,
	})
	tr := blockseq.SliceSource(app.Trace(0, 60_000))
	params := DefaultParams()
	run := func(pfName string) Result {
		pf, err := prefetch.New(pfName, app.Prog)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(params, app.Prog, tr, Options{Policy: replacement.NewLRU(), Prefetcher: pf, WarmupBlocks: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run("none")
	if base.MPKI() < 1 {
		t.Skip("workload too cache-friendly for the comparison")
	}
	for _, name := range []string{"nlp", "fdip", "tifs"} {
		r := run(name)
		if r.StallCycles >= base.StallCycles {
			t.Fatalf("%s did not reduce stall cycles: %d vs %d", name, r.StallCycles, base.StallCycles)
		}
		if r.Cycles >= base.Cycles {
			t.Fatalf("%s did not speed up the run", name)
		}
	}
}

func TestRunDefaultsNilPolicyAndPrefetcher(t *testing.T) {
	prog := loopProgram(t)
	res, err := Run(smallParams(), prog, trace(0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "lru" || res.Prefetcher != "none" {
		t.Fatalf("defaults = %s/%s", res.Policy, res.Prefetcher)
	}
}

func TestRunRejectsBadGeometry(t *testing.T) {
	prog := loopProgram(t)
	p := smallParams()
	p.L1I.SizeBytes = 100
	if _, err := Run(p, prog, trace(0), Options{}); err == nil {
		t.Fatal("invalid L1I geometry accepted")
	}
}

// TestBranchMPKIExcludesWarmup: with a warmup of W blocks, the reported
// branch MPKI counts exactly the mispredictions after the warmup, for a
// live FDIP and for a replay of its tape. The predictor's retire hook for
// block W-1 sees block W, so the warmup's share is what a run over the
// first W+1 blocks mispredicts.
func TestBranchMPKIExcludesWarmup(t *testing.T) {
	app := catalogApps(t)["kafka"]
	tr := blockseq.SliceSource(app.Trace(0, 20_000))
	engines := map[string]func(blockseq.Source) (prefetch.Prefetcher, error){
		"live": func(blockseq.Source) (prefetch.Prefetcher, error) {
			return prefetch.NewFDIP(app.Prog, bpred.DefaultConfig(), 32), nil
		},
		"replay": func(src blockseq.Source) (prefetch.Prefetcher, error) {
			pfs := prefetch.NewBatch(app.Prog, src, 100, 1) // enough serial FDIP runs to record a tape
			if pfs == nil {
				t.Fatal("100 serial FDIP runs record no tape")
			}
			return pfs.New("fdip", app.Prog)
		},
	}
	for name, newPF := range engines {
		run := func(src blockseq.Source, warmup int) (Result, uint64) {
			pf, err := newPF(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(DefaultParams(), app.Prog, src, Options{Prefetcher: pf, WarmupBlocks: warmup})
			if err != nil {
				t.Fatal(err)
			}
			missed, err := pf.(predicting).Mispredicts()
			if err != nil {
				t.Fatal(err)
			}
			return res, missed
		}
		_, total := run(tr, 0)
		for _, w := range []int{1, 5_000, 15_000} {
			res, _ := run(tr, w)
			_, warm := run(blockseq.Limit(tr, w+1), 0)
			steady := total - warm
			if want := float64(steady) / float64(res.Instrs) * 1000; res.BranchMPKI != want {
				t.Errorf("%s, warmup %d: branch MPKI %v, want %v (%d steady-state mispredictions)", name, w, res.BranchMPKI, want, steady)
			}
		}
	}
}

// TestSimulateAllocs bounds what one 20k-block kafka LRU+FDIP Run
// allocates once a first run has left a prewarmed L2/L3 pair on the free
// list: the L1I, the FDIP engine and the result (about 41 KB in 20
// allocations measured, the policy and prefetcher included; the L1I's
// way index is kept in the pair, not allocated per run). The counts
// are deterministic. A Run that built its own L2/L3 (5.13 MB in 3,344
// allocations before the free list), or that allocated per block, fails.
func TestSimulateAllocs(t *testing.T) {
	const (
		maxBytes  = 64 << 10
		maxAllocs = 40
		runs      = 5
	)
	app := catalogApps(t)["kafka"]
	tr := blockseq.SliceSource(app.Trace(0, 20_000))
	run := func() {
		pf := prefetch.NewFDIP(app.Prog, bpred.DefaultConfig(), 32)
		if _, err := Run(DefaultParams(), app.Prog, tr, Options{Policy: replacement.NewLRU(), Prefetcher: pf}); err != nil {
			t.Fatal(err)
		}
	}
	run()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("Run: %d B/op, %d allocs/op", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("Run allocates %d B per run, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("Run allocates %d times per run, want <= %d", allocs, maxAllocs)
	}
}
