package core

import (
	"reflect"
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

// refTables is the reference the per-line tables are checked against:
// window counts in one plain (line, block) map and execution counts,
// both rebuilt from the analysis's windows over the materialized
// sources.
type refTables struct {
	pairs     map[refKey]uint32
	execCount []uint32
	traces    [][]program.BlockID
	// seen[b] == gen marks block b as visited in the current window.
	seen []int
	gen  int
}

func buildRef(t *testing.T, a *Analysis) *refTables {
	t.Helper()
	r := &refTables{
		pairs:     make(map[refKey]uint32),
		execCount: make([]uint32, a.Prog.NumBlocks()),
		traces:    make([][]program.BlockID, len(a.sources)),
		seen:      make([]int, a.Prog.NumBlocks()),
	}
	for i, src := range a.sources {
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
		line := a.tables[w.li].line
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

// cue is selectCues's rule for one window over the reference map.
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

func sameChoice(x, y CueChoice) bool {
	return x.Line == y.Line && x.Block == y.Block && x.Probability == y.Probability
}

// requireTablesMatchRef asserts that Probability, Candidates (values and
// order) and every selected cue of a equal, bit for bit, what the plain
// (line, block) map built from the same windows gives.
func requireTablesMatchRef(t *testing.T, a *Analysis) {
	t.Helper()
	if a.Windows == 0 {
		t.Fatal("test is vacuous: no eviction windows found")
	}
	r := buildRef(t, a)

	entries := 0
	for i := range a.tables {
		tb := &a.tables[i]
		used := 0
		for _, s := range tb.slots {
			if s.key != 0 {
				used++
			}
		}
		if used != tb.used || 2*used > len(tb.slots) {
			t.Fatalf("line %d: %d of %d slots used, table says %d", tb.line, used, len(tb.slots), tb.used)
		}
		entries += used
	}
	if entries != len(r.pairs) {
		t.Fatalf("tables hold %d (line, block) pairs, reference %d", entries, len(r.pairs))
	}

	candidates := r.candidates()
	if len(candidates) != len(a.tables) {
		t.Fatalf("%d victim lines, reference %d", len(a.tables), len(candidates))
	}
	for i := range a.tables {
		line := a.tables[i].line
		got, want := a.Candidates(line), candidates[line]
		if len(got) != len(want) {
			t.Fatalf("line %d: %d candidates, reference %d", line, len(got), len(want))
		}
		for j := range got {
			if !sameChoice(got[j], want[j]) {
				t.Fatalf("line %d candidate %d = %+v, reference %+v", line, j, got[j], want[j])
			}
			if p := a.Probability(line, want[j].Block); p != want[j].Probability {
				t.Fatalf("Probability(%d, %d) = %v, reference %v", line, want[j].Block, p, want[j].Probability)
			}
		}
	}

	var want []CueChoice
	for _, w := range a.windows {
		if c, ok := r.cue(a.tables[w.li].line, w); ok {
			want = append(want, c)
		}
	}
	got := a.selectCues()
	if len(got) != len(want) {
		t.Fatalf("%d cues selected, reference %d", len(got), len(want))
	}
	for i := range got {
		if !sameChoice(got[i], want[i]) {
			t.Fatalf("cue %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestTablesMatchPairMap checks the per-line tables against a plain
// (line, block) map on full traces (kafka; drupal, whose JIT code
// executes too), on LBR-style fragments analyzed together, and with a
// tight window cap.
func TestTablesMatchPairMap(t *testing.T) {
	const blocks = 50_000
	kafka := catalogApp(t, "kafka")
	kafkaTrace := blockseq.SliceSource(kafka.Trace(0, blocks))

	t.Run("kafka", func(t *testing.T) {
		a, err := Analyze(kafka.Prog, kafkaTrace, DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireTablesMatchRef(t, a)
	})

	t.Run("drupal", func(t *testing.T) {
		drupal := catalogApp(t, "drupal")
		tr := drupal.Trace(0, blocks)
		jit := false
		for _, bid := range tr {
			jit = jit || drupal.Prog.Block(bid).JIT
		}
		if !jit {
			t.Fatal("test is vacuous: the drupal trace runs no JIT block")
		}
		a, err := Analyze(drupal.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireTablesMatchRef(t, a)
	})

	t.Run("lbr-fragments", func(t *testing.T) {
		prof, err := lbr.Sample(kafkaTrace, lbr.Config{Interval: 4_096, Depth: 2_048, Seed: 0x1B12})
		if err != nil {
			t.Fatal(err)
		}
		a, err := AnalyzeMulti(kafka.Prog, prof.Sources(), DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		withWindows := make(map[int32]bool)
		for _, w := range a.windows {
			withWindows[w.trace] = true
		}
		if len(withWindows) < 2 {
			t.Fatalf("test is vacuous: %d of %d fragments have windows", len(withWindows), len(a.sources))
		}
		requireTablesMatchRef(t, a)
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
		requireTablesMatchRef(t, a)
	})
}

// TestConcurrentReadersShareTables: the tables are read-only once
// Analyze returns, so concurrent PlanAt, Candidates and Probability
// callers (the experiment runner shares one Analysis across jobs) see
// what a serial caller sees.
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
