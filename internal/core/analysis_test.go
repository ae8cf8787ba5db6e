package core

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/lbr"
	"ripple/internal/program"
	"ripple/internal/workload"
)

// catalogApp builds the named catalog workload.
func catalogApp(t testing.TB, name string) *workload.App {
	t.Helper()
	m, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no catalog workload %q", name)
	}
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// refKey is a (victim line, candidate block) pair.
type refKey struct {
	line  uint64
	block program.BlockID
}

// refTables is the reference the analysis's per-line counts are checked
// against: window counts in one plain (line, block) map and execution
// counts, both rebuilt from the analysis's windows over the test's own
// sources, materialized.
type refTables struct {
	pairs     map[refKey]uint32
	execCount []uint32
	traces    [][]program.BlockID
	// seen[b] == gen marks block b as visited in the current window.
	seen []int
	gen  int
}

func buildRef(t *testing.T, a *Analysis, sources []blockseq.Source) *refTables {
	t.Helper()
	r := &refTables{
		pairs:     make(map[refKey]uint32),
		execCount: make([]uint32, a.Prog.NumBlocks()),
		traces:    make([][]program.BlockID, len(sources)),
		seen:      make([]int, a.Prog.NumBlocks()),
	}
	for i, src := range sources {
		if src == nil {
			continue
		}
		tr, err := blockseq.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, bid := range tr {
			r.execCount[bid]++
		}
		r.traces[i] = tr
	}
	for _, w := range a.windows {
		line := a.lines[w.li]
		r.gen++
		for _, bid := range r.windowBlocks(w) {
			if r.firstInWindow(bid) {
				r.pairs[refKey{line, bid}]++
			}
		}
	}
	return r
}

func (r *refTables) windowBlocks(w window) []program.BlockID {
	return r.traces[w.trace][w.start+1 : w.end+1]
}

func (r *refTables) firstInWindow(bid program.BlockID) bool {
	if r.seen[bid] == r.gen {
		return false
	}
	r.seen[bid] = r.gen
	return true
}

func (r *refTables) probability(line uint64, block program.BlockID) float64 {
	n := r.pairs[refKey{line, block}]
	if n == 0 || r.execCount[block] == 0 {
		return 0
	}
	return float64(n) / float64(r.execCount[block])
}

// candidates is Candidates over the reference map, for every victim
// line at once.
func (r *refTables) candidates() map[uint64][]CueChoice {
	out := make(map[uint64][]CueChoice)
	for k := range r.pairs {
		out[k.line] = append(out[k.line], CueChoice{Line: k.line, Block: k.block, Probability: r.probability(k.line, k.block)})
	}
	for _, cs := range out {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Probability != cs[j].Probability {
				return cs[i].Probability > cs[j].Probability
			}
			return cs[i].Block < cs[j].Block
		})
	}
	return out
}

// cue is the cue rule for one window over the reference map: among the
// window's distinct blocks, scanned closest to the eviction first, the
// first with the highest probability.
func (r *refTables) cue(line uint64, w window) (CueChoice, bool) {
	blocks := r.windowBlocks(w)
	r.gen++
	best := CueChoice{Line: line, Block: program.NoBlock}
	for i := len(blocks) - 1; i >= 0; i-- {
		bid := blocks[i]
		if !r.firstInWindow(bid) {
			continue
		}
		if p := r.probability(line, bid); p > best.Probability {
			best.Block, best.Probability = bid, p
		}
	}
	return best, best.Block != program.NoBlock
}

// windowCues returns every window of a's cue by the reference rule, in
// window order.
func (r *refTables) windowCues(t *testing.T, a *Analysis) []CueChoice {
	t.Helper()
	cues := make([]CueChoice, len(a.windows))
	for i, w := range a.windows {
		c, ok := r.cue(a.lines[w.li], w)
		if !ok {
			t.Fatalf("window %d has no cue in the reference", i)
		}
		cues[i] = c
	}
	return cues
}

func sameChoice(x, y CueChoice) bool {
	return x.Line == y.Line && x.Block == y.Block && x.Probability == y.Probability
}

// rankedPair is a cuePair with its victim line's address.
type rankedPair struct {
	Line        uint64
	Block       program.BlockID
	Windows     int32
	Probability float64
}

// rankedPairs returns a's ranked (line, cue) pairs in rank order.
func rankedPairs(a *Analysis) []rankedPair {
	out := make([]rankedPair, len(a.pairs))
	for i, c := range a.pairs {
		out[i] = rankedPair{Line: a.lines[c.li], Block: c.block, Windows: c.windows, Probability: c.probability}
	}
	return out
}

// requirePairsMatchCues asserts that a's ranked pairs are the distinct
// (line, block) pairs of the given per-window cues, each with its
// probability and the count of windows that picked it, in strict rank
// order: probability descending, then line, then block.
func requirePairsMatchCues(t *testing.T, a *Analysis, cues []CueChoice) {
	t.Helper()
	want := make(map[refKey]rankedPair)
	for _, c := range cues {
		k := refKey{c.Line, c.Block}
		p := want[k]
		p.Windows++
		p.Probability = c.Probability
		want[k] = p
	}
	pairs := rankedPairs(a)
	if len(pairs) != len(want) {
		t.Fatalf("%d ranked pairs, the windows' cues form %d", len(pairs), len(want))
	}
	for i, got := range pairs {
		w, ok := want[refKey{got.Line, got.Block}]
		if !ok || w.Windows != got.Windows || w.Probability != got.Probability {
			t.Fatalf("pair %d = %+v; the windows' cues give %d windows at %v (present: %t)", i, got, w.Windows, w.Probability, ok)
		}
		if i == 0 {
			continue
		}
		prev := pairs[i-1]
		if cmp.Or(cmp.Compare(got.Probability, prev.Probability), cmp.Compare(prev.Line, got.Line), cmp.Compare(prev.Block, got.Block)) >= 0 {
			t.Fatalf("pair %d %+v does not rank after pair %d %+v", i, got, i-1, prev)
		}
	}
}

// requireMatchesPairMap asserts that a, analyzed from sources, holds
// those sources' blocks and execution counts, that Probability and
// Candidates (values and order) equal, bit for bit, what a plain
// (line, block) map built from the same windows over the materialized
// sources gives, and that the ranked pairs are what every window's cue
// over that map gives.
func requireMatchesPairMap(t *testing.T, a *Analysis, sources []blockseq.Source) {
	t.Helper()
	if a.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	r := buildRef(t, a, sources)
	for i := range sources {
		if !slices.Equal(a.blocks[i], r.traces[i]) {
			t.Fatalf("source %d: the analysis holds %d blocks, the source yields %d (or they differ)", i, len(a.blocks[i]), len(r.traces[i]))
		}
	}
	if !slices.Equal(a.execCount, r.execCount) {
		t.Fatal("execution counts differ from the sources'")
	}

	candidates := r.candidates()
	if len(candidates) != len(a.lines) {
		t.Fatalf("%d victim lines, reference %d", len(a.lines), len(candidates))
	}
	entries := 0
	for _, line := range a.lines {
		got, want := a.Candidates(line), candidates[line]
		if len(got) != len(want) {
			t.Fatalf("line %d: %d candidates, reference %d", line, len(got), len(want))
		}
		for j := range got {
			if !sameChoice(got[j], want[j]) {
				t.Fatalf("line %d candidate %d = %+v, reference %+v", line, j, got[j], want[j])
			}
		}
		// Probability scans the line's windows on every call: check the
		// most and the least likely candidate of each line.
		for _, c := range []CueChoice{want[0], want[len(want)-1]} {
			if p := a.Probability(line, c.Block); p != c.Probability {
				t.Fatalf("Probability(%d, %d) = %v, reference %v", line, c.Block, p, c.Probability)
			}
		}
		entries += len(got)
	}
	if entries != len(r.pairs) {
		t.Fatalf("candidates hold %d (line, block) pairs, reference %d", entries, len(r.pairs))
	}

	requirePairsMatchCues(t, a, r.windowCues(t, a))
}

// TestTablesMatchPairMap checks the analysis's per-line counts and cue
// choices against a plain (line, block) map on full traces of every
// catalog app (drupal's included, whose JIT code executes too), on
// LBR-style fragments analyzed together, and with a tight window cap.
func TestTablesMatchPairMap(t *testing.T) {
	const blocks = 50_000
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			app := catalogApp(t, name)
			tr := app.Trace(0, blocks)
			if name == "drupal" && !slices.ContainsFunc(tr, func(bid program.BlockID) bool { return app.Prog.Block(bid).JIT }) {
				t.Fatal("test is vacuous: the drupal trace runs no JIT block")
			}
			sources := []blockseq.Source{blockseq.SliceSource(tr)}
			a, err := Analyze(app.Prog, sources[0], DefaultAnalysisConfig())
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesPairMap(t, a, sources)
		})
	}

	kafka := catalogApp(t, "kafka")
	kafkaTrace := blockseq.SliceSource(kafka.Trace(0, blocks))

	t.Run("lbr-fragments", func(t *testing.T) {
		prof, err := lbr.Sample(kafkaTrace, lbr.Config{Interval: 4_096, Depth: 2_048, Seed: 0x1B12})
		if err != nil {
			t.Fatal(err)
		}
		sources := prof.Sources()
		a, err := AnalyzeMulti(kafka.Prog, sources, DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		withWindows := make(map[int32]bool)
		for _, w := range a.windows {
			withWindows[w.trace] = true
		}
		if len(withWindows) < 2 {
			t.Fatalf("test is vacuous: %d of %d fragments have windows", len(withWindows), len(sources))
		}
		requireMatchesPairMap(t, a, sources)
	})

	t.Run("window-cap", func(t *testing.T) {
		cfg := DefaultAnalysisConfig()
		cfg.MaxWindowBlocks = 64
		a, err := Analyze(kafka.Prog, kafkaTrace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		capped := 0
		for _, w := range a.windows {
			if w.end-w.start == int32(cfg.MaxWindowBlocks) {
				capped++
			}
		}
		if capped == 0 {
			t.Fatal("test is vacuous: no window reaches the cap")
		}
		requireMatchesPairMap(t, a, []blockseq.Source{kafkaTrace})
	})
}

// TestConcurrentReadersShareTables: an Analysis is read-only once
// Analyze returns, and Candidates and Probability count on demand with
// call-local state only, so concurrent PlanAt, Candidates and
// Probability callers (the experiment runner shares one Analysis across
// jobs) see what a serial caller sees.
func TestConcurrentReadersShareTables(t *testing.T) {
	app := replayApp(t)
	cfg := DefaultAnalysisConfig()
	cfg.L1I.SizeBytes, cfg.L1I.Ways = 1<<10, 2 // small enough for the app to thrash
	a, err := Analyze(app.Prog, blockseq.SliceSource(app.Trace(0, 20_000)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := a.MostEvictedLine()
	want := a.Candidates(line)
	wantPlan := a.PlanAt(0.5)
	if len(want) == 0 || len(wantPlan.Injections) == 0 {
		t.Fatal("test is vacuous: no candidates or injections")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := a.PlanAt(0.5); !reflect.DeepEqual(got, wantPlan) {
				t.Errorf("concurrent PlanAt = %+v, want %+v", got, wantPlan)
			}
			if got := a.Candidates(line); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Candidates(%d) differ", line)
			}
			for _, c := range want {
				if p := a.Probability(line, c.Block); p != c.Probability {
					t.Errorf("concurrent Probability(%d, %d) = %v, want %v", line, c.Block, p, c.Probability)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnalyzeAllocs bounds what one Analyze of a 50k-block kafka trace
// allocates, with one cue shard and with two. The counts are
// deterministic, so the bounds are tight: about 3.4 MB in 246 allocations
// are measured at one shard and 3.5 MB in 261 at two, the bytes bound
// sits far below the 37.9 MB the analysis allocated with a count table
// per victim line, and the allocation count is a small fraction of the
// trace's 4,455 windows, so one allocation per window, let alone per
// block, fails.
func TestAnalyzeAllocs(t *testing.T) {
	const (
		maxBytes  = 4 << 20
		maxAllocs = 400
		runs      = 3
	)
	app := catalogApp(t, "kafka")
	tr := blockseq.SliceSource(app.Trace(0, 50_000))
	run := func() {
		if _, err := Analyze(app.Prog, tr, DefaultAnalysisConfig()); err != nil {
			t.Fatal(err)
		}
	}
	run()

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			allocs := (after.Mallocs - before.Mallocs) / runs
			t.Logf("Analyze: %d B/op, %d allocs/op", bytes, allocs)
			if bytes > maxBytes {
				t.Errorf("Analyze allocates %d B per run, want <= %d", bytes, maxBytes)
			}
			if allocs > maxAllocs {
				t.Errorf("Analyze allocates %d times per run, want <= %d", allocs, maxAllocs)
			}
		})
	}
}

// TestShardedCuesMatchSerial: the cue pass deals the victim lines to one
// shard per P, and nothing it outputs depends on how many. At 2 and 3 Ps
// every catalog app's 50k-block analysis, and one analysis of LBR
// fragments, must rank the same pairs as at 1 P, and plan the same bytes
// at the default thresholds and at thresholds equal to pair
// probabilities.
func TestShardedCuesMatchSerial(t *testing.T) {
	type subject struct {
		name    string
		prog    *program.Program
		sources []blockseq.Source
	}
	var subjects []subject
	for _, name := range workload.Names() {
		app := catalogApp(t, name)
		subjects = append(subjects, subject{name, app.Prog, []blockseq.Source{blockseq.SliceSource(app.Trace(0, 50_000))}})
	}
	kafka := catalogApp(t, "kafka")
	prof, err := lbr.Sample(blockseq.SliceSource(kafka.Trace(0, 50_000)), lbr.Config{Interval: 4_096, Depth: 2_048, Seed: 0x1B12})
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, subject{"kafka-lbr", kafka.Prog, prof.Sources()})

	type outcome struct {
		pairs      []rankedPair
		thresholds []float64
		digests    []string
	}
	serial := make([]outcome, len(subjects))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for i, s := range subjects {
			a, err := AnalyzeMulti(s.prog, s.sources, DefaultAnalysisConfig())
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				if len(a.lines) < 3 {
					t.Fatalf("%s: test is vacuous: %d victim lines for 3 shards", s.name, len(a.lines))
				}
				serial[i].pairs = rankedPairs(a)
				serial[i].thresholds = slices.Concat(DefaultThresholds(), pairThresholds(a, 7))
			}
			want := serial[i]
			if got := rankedPairs(a); !slices.Equal(got, want.pairs) {
				t.Fatalf("%s at %d Ps: %d ranked pairs differ from 1 P's %d", s.name, procs, len(got), len(want.pairs))
			}
			for j, th := range want.thresholds {
				dg, err := a.PlanAt(th).Digest()
				if err != nil {
					t.Fatal(err)
				}
				if procs == 1 {
					serial[i].digests = append(serial[i].digests, dg)
				} else if dg != want.digests[j] {
					t.Fatalf("%s at %d Ps: plan at %v has digest %s, at 1 P %s", s.name, procs, th, dg, want.digests[j])
				}
			}
		}
	}
}
