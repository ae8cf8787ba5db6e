package probe

import (
	"testing"

	"ripple/internal/cache"
	"ripple/internal/stats"
)

// refCountLRU is a tiny self-contained LRU used to pin Run's transcript
// semantics without importing the replacement catalog (which would
// cycle).
type refCountLRU struct {
	ways  int
	seq   [][]uint64
	clock uint64
}

func (p *refCountLRU) Name() string { return "test-lru" }
func (p *refCountLRU) Reset(sets, ways int) {
	p.ways = ways
	p.seq = make([][]uint64, sets)
	for s := range p.seq {
		p.seq[s] = make([]uint64, ways)
	}
}
func (p *refCountLRU) OnHit(set, way int, ai cache.AccessInfo) {
	p.clock++
	p.seq[set][way] = p.clock
}
func (p *refCountLRU) OnFill(set, way int, ai cache.AccessInfo) {
	p.clock++
	p.seq[set][way] = p.clock
}
func (p *refCountLRU) OnEvict(set, way int, reref bool) {}
func (p *refCountLRU) Victim(set int, ai cache.AccessInfo) int {
	v := 0
	for w := 1; w < p.ways; w++ {
		if p.seq[set][w] < p.seq[set][v] {
			v = w
		}
	}
	return v
}
func (p *refCountLRU) Demote(set, way int) { p.seq[set][way] = 0 }

func TestConfigLineRoundTrip(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 4}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for set := 0; set < cfg.Sets; set++ {
		for tag := 1; tag <= 8; tag++ {
			line := cfg.Line(set, tag)
			if got := int(line) & (cfg.Sets - 1); got != set {
				t.Fatalf("Line(%d,%d) maps to set %d", set, tag, got)
			}
			if got := cfg.sigOf(line); got != uint64(tag) {
				t.Fatalf("sigOf(Line(%d,%d)) = %d, want the tag", set, tag, got)
			}
		}
	}
	if err := (Config{Sets: 6, Ways: 4}).Validate(); err == nil {
		t.Error("non-power-of-two set count validated")
	}
	if err := (Config{Sets: 8, Ways: 0}).Validate(); err == nil {
		t.Error("zero ways validated")
	}
}

// TestRunTranscriptLRU pins the observable transcript op by op for a
// hand-computed LRU scenario: fills land in way order, hits report the
// resident way, the capacity miss evicts the least recently used line.
func TestRunTranscriptLRU(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 2}
	a, b, c := cfg.Line(0, 1), cfg.Line(0, 2), cfg.Line(0, 3)
	ops := []Op{
		{OpAccess, a}, // miss, fill way 0
		{OpAccess, b}, // miss, fill way 1
		{OpAccess, a}, // hit way 0 (promotes)
		{OpAccess, c}, // miss, evicts b (LRU), fills its way
		{OpAccess, b}, // miss again, evicts a
	}
	out, st := Run(&refCountLRU{}, cfg, ops)
	want := []Outcome{
		{Hit: false, Way: 0, Evicted: -1},
		{Hit: false, Way: 1, Evicted: -1},
		{Hit: true, Way: 0, Evicted: -1},
		{Hit: false, Way: 1, Evicted: int64(b)},
		{Hit: false, Way: 0, Evicted: int64(a)},
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("op %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
	if st.DemandMisses != 4 || st.Evictions != 2 {
		t.Errorf("stats: %d misses / %d evictions, want 4 / 2", st.DemandMisses, st.Evictions)
	}
	if err := CheckStats(st); err != nil {
		t.Error(err)
	}
}

// TestRunHintModes checks the three executions of the same OpHint
// schedule entry: ignored, invalidate (re-access misses), demote
// (line stays resident but becomes the next victim).
func TestRunHintModes(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 2}
	a, b := cfg.Line(0, 1), cfg.Line(0, 2)
	ops := []Op{{OpAccess, a}, {OpAccess, b}, {OpHint, a}, {OpAccess, a}}

	factory := func() cache.Policy { return &refCountLRU{} }

	cfg.Hints = HintNone
	out, _ := Run(factory(), cfg, ops)
	if !out[3].Hit {
		t.Error("HintNone: hint was not ignored")
	}
	if out[2] != hintOutcome {
		t.Errorf("hint outcome = %+v, want the constant zero outcome", out[2])
	}

	cfg.Hints = HintInvalidate
	out, _ = Run(factory(), cfg, ops)
	if out[3].Hit {
		t.Error("HintInvalidate: line survived invalidation")
	}

	cfg.Hints = HintDemote
	out, _ = Run(factory(), cfg, ops)
	if !out[3].Hit {
		t.Error("HintDemote: demote evicted the line")
	}
	// After the re-touch of a, b is older... demote a again and press.
	ops = append(ops, Op{OpHint, a}, Op{OpAccess, cfg.Line(0, 3)})
	out, _ = Run(factory(), cfg, ops)
	if out[5].Evicted != int64(a) {
		t.Errorf("HintDemote: pressure evicted %#x, want the demoted line %#x", out[5].Evicted, a)
	}
}

func TestFirstDivergence(t *testing.T) {
	a := []Outcome{{Hit: true}, {Way: 1}, {Evicted: 3}}
	if got := FirstDivergence(a, a); got != -1 {
		t.Errorf("identical transcripts diverge at %d", got)
	}
	b := append([]Outcome{}, a...)
	b[1].Way = 2
	if got := FirstDivergence(a, b); got != 1 {
		t.Errorf("divergence at %d, want 1", got)
	}
	if got := FirstDivergence(a, a[:2]); got != 2 {
		t.Errorf("length divergence at %d, want 2", got)
	}
}

func TestCheckStatsViolation(t *testing.T) {
	bad := cache.Stats{Accesses: 1} // 1 != 0 + 0
	if err := CheckStats(bad); err == nil {
		t.Error("inconsistent stats passed CheckStats")
	}
}

func TestRandomScheduleDeterministicAndBounded(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 4}
	a := RandomSchedule(42, cfg, 300)
	b := RandomSchedule(42, cfg, 300)
	if len(a) != 300 {
		t.Fatalf("schedule length %d, want 300", len(a))
	}
	pool := map[uint64]bool{}
	for _, line := range Pool(cfg) {
		pool[line] = true
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if !pool[a[i].Line] {
			t.Fatalf("op %d uses line %#x outside the pool", i, a[i].Line)
		}
	}
	if c := RandomSchedule(43, cfg, 300); FirstDivergenceOps(a, c) < 0 {
		t.Error("different seeds produced identical schedules")
	}
}

// FirstDivergenceOps is a test helper mirroring FirstDivergence for ops.
func FirstDivergenceOps(a, b []Op) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func TestOpsFromBytes(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2}
	pool := map[uint64]bool{}
	for _, line := range Pool(cfg) {
		pool[line] = true
	}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 37)
	}
	ops := OpsFromBytes(data, cfg, 100)
	if len(ops) != 100 {
		t.Fatalf("maxOps not honored: %d ops", len(ops))
	}
	for i, op := range ops {
		if !pool[op.Line] {
			t.Fatalf("op %d line %#x outside pool", i, op.Line)
		}
	}
	if got := OpsFromBytes(data[:7], cfg, 100); len(got) != 3 {
		t.Errorf("odd-length input: %d ops, want 3", len(got))
	}
	if got := OpsFromBytes(nil, cfg, 100); len(got) != 0 {
		t.Errorf("empty input: %d ops", len(got))
	}
}

func TestClassPermRespectsClasses(t *testing.T) {
	rng := stats.NewRNG(9)
	class := func(set int) int {
		if set%4 == 0 {
			return 1
		}
		return 0
	}
	for trial := 0; trial < 20; trial++ {
		perm := ClassPerm(rng, 16, class)
		seen := map[int]bool{}
		for s, to := range perm {
			if class(s) != class(to) {
				t.Fatalf("perm moves set %d (class %d) to %d (class %d)", s, class(s), to, class(to))
			}
			if seen[to] {
				t.Fatalf("perm is not a bijection: %d hit twice", to)
			}
			seen[to] = true
		}
	}
	// nil class must be a full permutation.
	perm := ClassPerm(rng, 8, nil)
	seen := map[int]bool{}
	for _, to := range perm {
		seen[to] = true
	}
	if len(seen) != 8 {
		t.Errorf("nil-class perm is not a bijection: %v", perm)
	}
}

// TestPermutationMachinery checks PermuteOps/PermuteOutcome against a
// policy that is trivially set-symmetric: transcripts must map exactly
// through the relabeling.
func TestPermutationMachinery(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 2, Hints: HintDemote}
	rng := stats.NewRNG(77)
	perm := ClassPerm(rng, cfg.Sets, nil)
	sched := RandomSchedule(5, cfg, 400)
	base, _ := Run(&refCountLRU{}, cfg, sched)
	permuted, _ := Run(&refCountLRU{}, cfg, PermuteOps(sched, cfg, perm))
	for i := range base {
		if want := PermuteOutcome(base[i], cfg, perm); permuted[i] != want {
			t.Fatalf("op %d: got %+v, want %+v", i, permuted[i], want)
		}
	}
}

// TestLearnLRUModel pins the learned model for the canonical LRU: in-order
// eviction, hit promotion, no scan-through insertion, demotion forcing.
func TestLearnLRUModel(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 4}
	m := Learn(func() cache.Policy { return &refCountLRU{} }, cfg)
	if !m.Deterministic {
		t.Error("LRU learned as non-deterministic")
	}
	if !m.PromotesOnHit {
		t.Error("LRU learned as not promoting on hit")
	}
	if m.PrefetchPromotes {
		t.Error("LRU prefetch probes must not promote")
	}
	if m.ScanThroughInsert {
		t.Error("LRU learned as scan-through")
	}
	if !m.Demotes || !m.DemoteForcesVictim {
		t.Errorf("LRU demote model wrong: %+v", m)
	}
	for i, w := range m.EvictionOrder {
		if w != i {
			t.Errorf("LRU eviction order %v, want in-order fills", m.EvictionOrder)
			break
		}
	}
	if m.Fingerprint == "" || len(m.Fingerprint) != 16 {
		t.Errorf("bad fingerprint %q", m.Fingerprint)
	}
	// The model must be reproducible.
	if m2 := Learn(func() cache.Policy { return &refCountLRU{} }, cfg); !m.Equal(m2) {
		t.Error("Learn is not reproducible")
	}
}

func TestParseHintMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want HintMode
	}{{"none", HintNone}, {"", HintNone}, {"invalidate", HintInvalidate}, {"demote", HintDemote}} {
		got, err := ParseHintMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseHintMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseHintMode("bogus"); err == nil {
		t.Error("bogus hint mode parsed")
	}
}

func TestWitnessMachinery(t *testing.T) {
	// LRU vs a fixed-way-0 evictor must separate quickly.
	fixed := func() cache.Policy { return &fixedVictim{} }
	lru := func() cache.Policy { return &refCountLRU{} }
	a := Subject{Name: "lru", Hints: HintNone, New: lru}
	b := Subject{Name: "fixed", Hints: HintNone, New: fixed}
	w, ok := FindWitness(a, b, 4, 4, SearchOpts{MaxSeeds: 100})
	if !ok {
		t.Fatal("no witness for trivially distinct policies")
	}
	if got := ReplayWitness(w, a, b); got != w.Len-1 {
		t.Errorf("witness replay diverges at %d, want %d (Len-1)", got, w.Len-1)
	}
	if len(WitnessOps(w)) != w.Len {
		t.Errorf("WitnessOps length %d, want %d", len(WitnessOps(w)), w.Len)
	}
	// A subject is indistinguishable from itself.
	if _, ok := FindWitness(a, a, 4, 4, SearchOpts{MaxSeeds: 50}); ok {
		t.Error("found a witness separating a subject from itself")
	}
	if PairKey("b", "a") != "a|b" || PairKey("a", "b") != "a|b" {
		t.Error("PairKey is not canonical")
	}
}

type fixedVictim struct{ ways int }

func (p *fixedVictim) Name() string                             { return "fixed" }
func (p *fixedVictim) Reset(sets, ways int)                     { p.ways = ways }
func (p *fixedVictim) OnHit(set, way int, ai cache.AccessInfo)  {}
func (p *fixedVictim) OnFill(set, way int, ai cache.AccessInfo) {}
func (p *fixedVictim) OnEvict(set, way int, reref bool)         {}
func (p *fixedVictim) Victim(set int, ai cache.AccessInfo) int  { return 0 }
