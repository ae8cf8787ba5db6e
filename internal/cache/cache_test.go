package cache

import (
	"slices"
	"testing"
)

// fifoPolicy is a minimal policy for exercising the cache mechanics
// deterministically: victim = oldest fill.
type fifoPolicy struct {
	ways   int
	stamp  []uint64
	clock  uint64
	dclock uint64
}

func (p *fifoPolicy) Name() string { return "test-fifo" }
func (p *fifoPolicy) Reset(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint64, sets*ways)
	// Fill stamps live far above demote stamps so any demoted line is
	// preferred as victim, with unique ordering among demotions.
	p.clock = 1 << 32
	p.dclock = 0
}
func (p *fifoPolicy) OnHit(set, way int, ai AccessInfo) {}
func (p *fifoPolicy) OnFill(set, way int, ai AccessInfo) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *fifoPolicy) OnEvict(set, way int, reref bool) {}
func (p *fifoPolicy) Victim(set int, ai AccessInfo) int {
	best, bestStamp := 0, p.stamp[set*p.ways]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[set*p.ways+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}
func (p *fifoPolicy) Demote(set, way int) {
	p.dclock++
	p.stamp[set*p.ways+way] = p.dclock
}

// twoWay builds a 2-way cache with 2 sets (256 bytes of 64B lines).
func twoWay(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Lines 0, 2, 4 map to set 0 of a 2-set cache; 1, 3, 5 to set 1.

func TestConfigValidation(t *testing.T) {
	good := Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("Table II config rejected: %v", err)
	}
	if good.Sets() != 64 {
		t.Fatalf("32KB/8w/64B has %d sets, want 64", good.Sets())
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 8, LineBytes: 64},
		{SizeBytes: 32 << 10, Ways: 0, LineBytes: 64},
		{SizeBytes: 3000, Ways: 8, LineBytes: 64},     // not divisible
		{SizeBytes: 24 << 10, Ways: 8, LineBytes: 64}, // 48 sets: not power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestHitMissFill(t *testing.T) {
	c := twoWay(t)
	r := c.Access(AccessInfo{Line: 0})
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(AccessInfo{Line: 0})
	if !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Stats.DemandAccesses != 2 || c.Stats.DemandMisses != 1 || c.Stats.Fills != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if !c.Contains(0) || c.Contains(2) {
		t.Fatal("Contains wrong")
	}
}

func TestEvictionUsesPolicyVictim(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0}) // set 0, oldest
	c.Access(AccessInfo{Line: 2}) // set 0
	r := c.Access(AccessInfo{Line: 4})
	if !r.EvictedValid || r.Evicted != 0 {
		t.Fatalf("expected FIFO eviction of line 0, got %+v", r)
	}
	if c.Contains(0) || !c.Contains(2) || !c.Contains(4) {
		t.Fatal("post-eviction contents wrong")
	}
	if c.Stats.Evictions != 1 || c.Stats.ReplacementDecisions != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInvalidateAndCoverageAttribution(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0})
	c.Access(AccessInfo{Line: 2})
	if !c.Invalidate(0) {
		t.Fatal("Invalidate missed a resident line")
	}
	if c.Contains(0) {
		t.Fatal("line resident after Invalidate")
	}
	if c.Stats.HintInvalidations != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// The next fill into the set lands in the freed way and is attributed
	// to Ripple.
	r := c.Access(AccessInfo{Line: 4})
	if !r.HintFreed || r.EvictedValid {
		t.Fatalf("fill after invalidate: %+v", r)
	}
	if c.Stats.HintFreedFills != 1 || c.Stats.ReplacementDecisions != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if got := c.Stats.Coverage(); got != 1 {
		t.Fatalf("coverage = %v, want 1", got)
	}
	// Invalidating an absent line is a miss, not an error.
	if c.Invalidate(100) {
		t.Fatal("Invalidate hit an absent line")
	}
	if c.Stats.HintMisses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestDemoteAttribution(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0})
	c.Access(AccessInfo{Line: 2})
	c.Access(AccessInfo{Line: 2}) // line 0 stays FIFO-oldest anyway
	if !c.Demote(2) {
		t.Fatal("Demote missed a resident line")
	}
	if !c.Contains(2) {
		t.Fatal("Demote removed the line")
	}
	// Next fill evicts the demoted line (stamp forced to 0) and the
	// decision is attributed to Ripple.
	r := c.Access(AccessInfo{Line: 4})
	if !r.EvictedValid || r.Evicted != 2 {
		t.Fatalf("expected demoted line 2 evicted, got %+v", r)
	}
	if !r.HintFreed || c.Stats.HintFreedFills != 1 {
		t.Fatalf("demote eviction not attributed: %+v", c.Stats)
	}
}

func TestDemandHitCancelsDemote(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0})
	c.Access(AccessInfo{Line: 2})
	c.Demote(0)
	// A demand re-use revokes Ripple's claim; the line is touched again
	// (FIFO ignores hits, so re-fill ordering still evicts it — but the
	// eviction must no longer be attributed to Ripple).
	c.Access(AccessInfo{Line: 0})
	r := c.Access(AccessInfo{Line: 4})
	if r.Evicted != 0 {
		t.Fatalf("expected FIFO eviction of 0, got %+v", r)
	}
	if r.HintFreed || c.Stats.HintFreedFills != 0 {
		t.Fatal("cancelled demote still attributed to Ripple")
	}
}

func TestPrefetchBits(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0, Prefetch: true})
	if c.Stats.PrefetchFills != 1 || c.Stats.DemandMisses != 0 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// First demand hit marks the prefetch useful; it uses the prefetch
	// up, so a second demand hit does not count again.
	r := c.Access(AccessInfo{Line: 0})
	if !r.Hit || c.Stats.PrefetchUseful != 1 {
		t.Fatalf("demand on prefetched line: %+v, stats = %+v", r, c.Stats)
	}
	if r = c.Access(AccessInfo{Line: 0}); !r.Hit || c.Stats.PrefetchUseful != 1 {
		t.Fatalf("second demand hit: %+v, stats = %+v", r, c.Stats)
	}
	// An unused prefetch that gets evicted counts as pollution.
	c.Access(AccessInfo{Line: 2, Prefetch: true})
	c.Access(AccessInfo{Line: 4})
	c.Access(AccessInfo{Line: 6})
	if c.Stats.PrefetchUnusedEvicted != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInvalidateUnusedPrefetchCountsPollution(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0, Prefetch: true})
	c.Invalidate(0)
	if c.Stats.PrefetchUnusedEvicted != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Accesses: 10, DemandMisses: 4, Evictions: 3, HintFreedFills: 2, ReplacementDecisions: 5}
	b := Stats{Accesses: 6, DemandMisses: 1, Evictions: 1, HintFreedFills: 1, ReplacementDecisions: 2}
	d := Sub(a, b)
	if d.Accesses != 4 || d.DemandMisses != 3 || d.Evictions != 2 || d.HintFreedFills != 1 || d.ReplacementDecisions != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestMPKI(t *testing.T) {
	s := Stats{DemandMisses: 50}
	if got := s.MPKI(10000); got != 5 {
		t.Fatalf("MPKI = %v", got)
	}
	if s.MPKI(0) != 0 {
		t.Fatal("MPKI(0 instrs) should be 0")
	}
}

// refCache is an independent, obviously-correct reimplementation of the
// cache semantics under the FIFO test policy, used as a differential
// oracle: after every random operation, hit/miss outcomes and residency
// must match the real implementation exactly.
type refCache struct {
	ways   int
	nsets  uint64
	sets   map[uint64][]refLine
	clock  uint64
	dclock uint64
}

type refLine struct {
	line    uint64
	filled  uint64 // FIFO stamp (0 = demoted to front of queue)
	demoted bool
}

func newRef(cfg Config) *refCache {
	return &refCache{ways: cfg.Ways, nsets: uint64(cfg.Sets()), sets: map[uint64][]refLine{}, clock: 1 << 32}
}

func (r *refCache) access(line uint64) (hit bool) {
	set := line % r.nsets
	s := r.sets[set]
	for i := range s {
		if s[i].line == line {
			s[i].demoted = false // demand re-use cancels a demote
			return true
		}
	}
	r.clock++
	nl := refLine{line: line, filled: r.clock}
	if len(s) < r.ways {
		r.sets[set] = append(s, nl)
		return false
	}
	v := 0
	for i := range s {
		if s[i].filled < s[v].filled {
			v = i
		}
	}
	s[v] = nl
	return false
}

func (r *refCache) invalidate(line uint64) bool {
	set := line % r.nsets
	s := r.sets[set]
	for i := range s {
		if s[i].line == line {
			r.sets[set] = append(s[:i:i], s[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refCache) demote(line uint64) bool {
	set := line % r.nsets
	s := r.sets[set]
	for i := range s {
		if s[i].line == line {
			r.dclock++
			s[i].filled = r.dclock
			s[i].demoted = true
			return true
		}
	}
	return false
}

func (r *refCache) contains(line uint64) bool {
	for _, l := range r.sets[line%r.nsets] {
		if l.line == line {
			return true
		}
	}
	return false
}

// TestCacheMatchesReferenceModel drives 50k random operations through the
// real cache, the same cache indexed over half the probed lines (so both
// TryHit and the scan serve hits), and the reference model, and checks
// they agree on every outcome, on the stats and on residency of every
// probed line, and that the index stays exact.
func TestCacheMatchesReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64} // 8 sets
	c, err := New(cfg, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := New(cfg, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ci.Index(32, make([]uint8, 64))
	ref := newRef(cfg)
	// Deterministic xorshift for op selection.
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := 0; i < 50_000; i++ {
		line := next(128)
		switch next(10) {
		case 0:
			got := c.Invalidate(line)
			want := ref.invalidate(line)
			if got != want || ci.Invalidate(line) != want {
				t.Fatalf("op %d: Invalidate(%d) = %v, ref %v", i, line, got, want)
			}
		case 1:
			got := c.Demote(line)
			want := ref.demote(line)
			if got != want || ci.Demote(line) != want {
				t.Fatalf("op %d: Demote(%d) = %v, ref %v", i, line, got, want)
			}
		default:
			ai := AccessInfo{Line: line, Sig: line, Prefetch: i%5 == 4}
			res := c.Access(ai)
			want := ref.access(line)
			if res.Hit != want {
				t.Fatalf("op %d: Access(%d).Hit = %v, ref %v", i, line, res.Hit, want)
			}
			if hit := ci.TryHit(ai) || ci.Access(ai).Hit; hit != want {
				t.Fatalf("op %d: indexed access of %d hit = %v, ref %v", i, line, hit, want)
			}
		}
		if c.Contains(line) != ref.contains(line) || ci.Contains(line) != ref.contains(line) {
			t.Fatalf("op %d: residency of %d diverged", i, line)
		}
		if ci.Stats != c.Stats {
			t.Fatalf("op %d: indexed stats %+v, unindexed %+v", i, ci.Stats, c.Stats)
		}
		if i%1000 == 0 {
			checkIndex(t, ci)
		}
	}
	checkIndex(t, ci)
}

// checkIndex fails unless every entry of c's index says where a scan of
// the line's set finds it.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	for i, e := range c.idx {
		l := c.idxFirst + uint64(i)
		way := -1
		for w, ln := range c.row(c.SetOf(l)) {
			if ln.valid && ln.tag == l {
				way = w
			}
		}
		if int(e)-1 != way {
			t.Fatalf("index entry of line %d is %d, scan finds way %d", l, e, way)
		}
	}
}

// TestIndexRefusals: a cache too wide for a one-byte entry stays
// unindexed and serves hits by the scan (and may still be marked), and a
// cache cannot be both indexed and marked.
func TestIndexRefusals(t *testing.T) {
	wide, err := New(Config{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64}, &stampPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	wide.Index(0, make([]uint8, 16))
	wide.Access(AccessInfo{Line: 3})
	if wide.TryHit(AccessInfo{Line: 3}) || !wide.Access(AccessInfo{Line: 3}).Hit {
		t.Fatal("a 256-way cache served a hit from an index")
	}
	wide.Mark()

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	marked, _ := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, &stampPolicy{})
	marked.Mark()
	mustPanic("Index of a marked cache", func() { marked.Index(0, make([]uint8, 4)) })
	indexed, _ := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, &stampPolicy{})
	indexed.Index(0, make([]uint8, 4))
	mustPanic("Mark of an indexed cache", indexed.Mark)
}

// TestIndexFillsFromContents: Index overwrites whatever the table held
// with the cache's current contents.
func TestIndexFillsFromContents(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 1})
	c.Access(AccessInfo{Line: 4})
	table := []uint8{9, 9, 9, 9, 9, 9}
	c.Index(0, table)
	checkIndex(t, c)
	if !c.TryHit(AccessInfo{Line: 4}) || c.TryHit(AccessInfo{Line: 2}) {
		t.Fatal("TryHit disagrees with the cache's contents")
	}
}

// FuzzCacheIndex decodes op bytes into demand accesses, prefetch probes,
// invalidations and demotions, runs them on an indexed and an unindexed
// cache with an LRU-like policy (so a hit on the wrong way changes later
// victims), and fails on any differing result, stats, residency or
// policy state, or an index entry a scan contradicts.
func FuzzCacheIndex(f *testing.F) {
	f.Add([]byte{0, 20, 1, 21, 0, 20, 2, 20, 0, 28, 3, 36, 1, 44, 0, 52})
	f.Add([]byte{1, 16, 0, 16, 0, 16, 1, 48, 0, 47, 0, 15, 2, 47, 3, 16})
	f.Add([]byte{0, 8, 0, 24, 0, 40, 0, 56, 0, 8, 3, 24, 0, 72, 2, 8})
	// A prefetch hit on an indexed line must reach the policy: it decides
	// whether line 16 or 24 is the set's next victim.
	f.Add([]byte{1, 16, 0, 24, 0, 32, 0, 40, 1, 16, 0, 48, 0, 16})
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64} // 8 sets
	f.Fuzz(func(t *testing.T, ops []byte) {
		up, xp := &stampPolicy{}, &stampPolicy{}
		u, err := New(cfg, up)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := New(cfg, xp)
		x.Index(16, make([]uint8, 32)) // lines 16..47 of 0..63
		for i := 0; i+1 < len(ops); i += 2 {
			line := uint64(ops[i+1] % 64)
			switch ops[i] % 4 {
			case 0, 1:
				ai := AccessInfo{Line: line, Sig: line, Prefetch: ops[i]%4 == 1}
				want := u.Access(ai)
				if x.TryHit(ai) {
					if !want.Hit {
						t.Fatalf("op %d: TryHit(%+v) hit, unindexed Access missed", i/2, ai)
					}
				} else if got := x.Access(ai); got != want {
					t.Fatalf("op %d: Access(%+v) = %+v, unindexed %+v", i/2, ai, got, want)
				}
			case 2:
				if got, want := x.Invalidate(line), u.Invalidate(line); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, unindexed %v", i/2, line, got, want)
				}
			case 3:
				if got, want := x.Demote(line), u.Demote(line); got != want {
					t.Fatalf("op %d: Demote(%d) = %v, unindexed %v", i/2, line, got, want)
				}
			}
			if x.Stats != u.Stats || x.Contains(line) != u.Contains(line) {
				t.Fatalf("op %d: stats or residency of %d diverged: %+v vs %+v", i/2, line, x.Stats, u.Stats)
			}
			if !slices.Equal(xp.stamp, up.stamp) || xp.clock != up.clock {
				t.Fatalf("op %d: policy state diverged", i/2)
			}
			checkIndex(t, x)
		}
		if !slices.Equal(x.sets, u.sets) || x.Stats != u.Stats {
			t.Fatal("final tags or stats diverged")
		}
	})
}

func TestAccessResultSetAndWay(t *testing.T) {
	c := twoWay(t)
	if set := c.SetOf(3); set != 1 { // odd line -> set 1
		t.Fatalf("SetOf(3) = %d, want 1", set)
	}
	c.Access(AccessInfo{Line: 1})
	r := c.Access(AccessInfo{Line: 3}) // the set's second way
	if r.Hit || r.Way != 1 {
		t.Fatalf("fill of line 3: %+v, want a miss into way 1", r)
	}
	r2 := c.Access(AccessInfo{Line: 3})
	if !r2.Hit || r2.Way != r.Way {
		t.Fatalf("hit did not land on the fill way: %+v vs %+v", r2, r)
	}
}

func TestPrefetchProbeDoesNotClearPrefetchBit(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0, Prefetch: true})
	// A second prefetch probe hits; the line is still an unused prefetch.
	c.Access(AccessInfo{Line: 0, Prefetch: true})
	c.Access(AccessInfo{Line: 2})
	c.Access(AccessInfo{Line: 4}) // evicts something
	if c.Stats.PrefetchUnusedEvicted+c.Stats.PrefetchUseful == 0 {
		t.Fatal("prefetch bit lost")
	}
}

func TestCoverageDenominatorCountsBothKinds(t *testing.T) {
	c := twoWay(t)
	c.Access(AccessInfo{Line: 0})
	c.Access(AccessInfo{Line: 2})
	c.Invalidate(0)
	c.Access(AccessInfo{Line: 4}) // hint-freed fill
	c.Access(AccessInfo{Line: 6}) // policy eviction
	if c.Stats.ReplacementDecisions != 2 {
		t.Fatalf("ReplacementDecisions = %d, want 2", c.Stats.ReplacementDecisions)
	}
	if cov := c.Stats.Coverage(); cov != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", cov)
	}
}

func TestDemoteWithoutDemoterPolicy(t *testing.T) {
	// A policy without Demote support makes Cache.Demote a no-op false.
	type plainPolicy struct{ fifoPolicy }
	// fifoPolicy implements Demote; wrap to hide it.
	c, err := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, nonDemoter{&fifoPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(AccessInfo{Line: 0})
	if c.Demote(0) {
		t.Fatal("Demote succeeded without policy support")
	}
	_ = plainPolicy{}
}

// nonDemoter forwards Policy but hides the Demoter interface.
type nonDemoter struct{ p *fifoPolicy }

func (n nonDemoter) Name() string                       { return "non-demoter" }
func (n nonDemoter) Reset(sets, ways int)               { n.p.Reset(sets, ways) }
func (n nonDemoter) OnHit(set, way int, ai AccessInfo)  { n.p.OnHit(set, way, ai) }
func (n nonDemoter) OnFill(set, way int, ai AccessInfo) { n.p.OnFill(set, way, ai) }
func (n nonDemoter) OnEvict(set, way int, reref bool)   { n.p.OnEvict(set, way, reref) }
func (n nonDemoter) Victim(set int, ai AccessInfo) int  { return n.p.Victim(set, ai) }

// countingDemoter records Demote callbacks so tests can assert the cache
// never forwards demote hints for non-resident lines.
type countingDemoter struct {
	fifoPolicy
	demotes int
}

func (p *countingDemoter) Demote(set, way int) {
	p.demotes++
	p.fifoPolicy.Demote(set, way)
}

// TestDemoteNonResidentIsNoOp locks the first clause of the Demoter
// contract: Cache.Demote on a line that was never filled, or that was
// just evicted, reports false, counts a hint miss, and never reaches the
// policy.
func TestDemoteNonResidentIsNoOp(t *testing.T) {
	pol := &countingDemoter{}
	c, err := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if c.Demote(0) {
		t.Error("Demote of a never-filled line reported resident")
	}
	// Fill set 0 beyond capacity; line 0 is the FIFO victim.
	c.Access(AccessInfo{Line: 0})
	c.Access(AccessInfo{Line: 2})
	c.Access(AccessInfo{Line: 4}) // evicts line 0
	if c.Contains(0) {
		t.Fatal("line 0 should have been evicted")
	}
	if c.Demote(0) {
		t.Error("Demote of a just-evicted line reported resident")
	}
	if pol.demotes != 0 {
		t.Errorf("policy saw %d Demote callbacks for non-resident lines, want 0", pol.demotes)
	}
	if c.Stats.HintMisses != 2 {
		t.Errorf("HintMisses = %d, want 2", c.Stats.HintMisses)
	}
	if c.Stats.Demotions != 0 {
		t.Errorf("Demotions = %d, want 0", c.Stats.Demotions)
	}
	// A resident demote still works and reaches the policy exactly once.
	if !c.Demote(2) {
		t.Error("Demote of a resident line reported non-resident")
	}
	if pol.demotes != 1 || c.Stats.Demotions != 1 {
		t.Errorf("resident demote: %d callbacks / %d Demotions, want 1 / 1", pol.demotes, c.Stats.Demotions)
	}
}

// stampPolicy is an LRU-like Rewinder for the journal tests: its whole
// state is one stamp per way and a clock.
type stampPolicy struct {
	ways  int
	stamp []uint64
	clock uint64
}

func (p *stampPolicy) Name() string         { return "test-stamp" }
func (p *stampPolicy) Reset(sets, ways int) { p.ways, p.stamp = ways, make([]uint64, sets*ways) }
func (p *stampPolicy) OnHit(set, way int, ai AccessInfo) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *stampPolicy) OnFill(set, way int, ai AccessInfo) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *stampPolicy) OnEvict(set, way int, reref bool) {}
func (p *stampPolicy) Demote(set, way int)              { p.stamp[set*p.ways+way] = 0 }
func (p *stampPolicy) Words(set int) []uint64           { return p.stamp[set*p.ways : (set+1)*p.ways] }
func (p *stampPolicy) Global() uint64                   { return p.clock }
func (p *stampPolicy) SetGlobal(w uint64)               { p.clock = w }
func (p *stampPolicy) Victim(set int, ai AccessInfo) int {
	row := p.stamp[set*p.ways : (set+1)*p.ways]
	return slices.Index(row, slices.Min(row))
}

// TestRollbackRestoresMark: whatever mix of demand and prefetch
// accesses, invalidations and demotions follows a mark, Rollback
// restores every tag entry, every policy word, the policy clock and the
// stats, and does so again after a second round from the same mark.
func TestRollbackRestoresMark(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64} // 8 sets
	pol := &stampPolicy{}
	c, err := New(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	ops := func(n int) {
		for i := 0; i < n; i++ {
			line := next(96)
			switch next(8) {
			case 0:
				c.Invalidate(line)
			case 1:
				c.Demote(line)
			default:
				c.Access(AccessInfo{Line: line, Sig: line, Prefetch: next(3) == 0})
			}
		}
	}
	ops(500)
	c.Mark()
	lines, stamps, clock, stats := slices.Clone(c.sets), slices.Clone(pol.stamp), pol.clock, c.Stats
	for round := 0; round < 3; round++ {
		ops(40 + 200*round)
		c.Rollback()
		if !slices.Equal(c.sets, lines) || !slices.Equal(pol.stamp, stamps) || pol.clock != clock || c.Stats != stats {
			t.Fatalf("round %d: rollback did not restore the marked state", round)
		}
	}
}

// countingPolicy is fifoPolicy counting the OnHit and Victim calls it
// gets.
type countingPolicy struct {
	fifoPolicy
	hits, victims int
}

func (p *countingPolicy) OnHit(set, way int, ai AccessInfo) { p.hits++ }
func (p *countingPolicy) Victim(set int, ai AccessInfo) int {
	p.victims++
	return p.fifoPolicy.Victim(set, ai)
}

// observingPolicy is countingPolicy as a PrefetchObserver.
type observingPolicy struct {
	countingPolicy
	prefetchHits int
}

func (p *observingPolicy) OnPrefetchHit(set, way int, ai AccessInfo) { p.prefetchHits++ }

// TestPrefetchHitContract pins what a prefetch probe of a resident line
// reaches, by each way of probing: neither OnHit nor Victim, and
// OnPrefetchHit only on a policy that implements it. TryPrefetchHit serves
// such a probe only under a policy that does not observe it, and then
// counts exactly what Access counts. A demand hit reaches OnHit only.
func TestPrefetchHitContract(t *testing.T) {
	for _, observing := range []bool{false, true} {
		obs := &observingPolicy{}
		var pol Policy = &obs.countingPolicy
		if observing {
			pol = obs
		}
		c, err := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64}, pol)
		if err != nil {
			t.Fatal(err)
		}
		if c.TryPrefetchHit(0) {
			t.Fatalf("observing=%t: TryPrefetchHit served an unindexed cache", observing)
		}
		c.Index(0, make([]uint8, 8))
		c.Access(AccessInfo{Line: 0})
		c.Access(AccessInfo{Line: 2}) // set 0 is full
		if c.TryPrefetchHit(4) {
			t.Fatalf("observing=%t: TryPrefetchHit served a line that is not resident", observing)
		}
		probes := uint64(2)
		if got := c.TryPrefetchHit(0); got == observing {
			t.Fatalf("observing=%t: TryPrefetchHit(resident line) = %t", observing, got)
		} else if got {
			probes++
		}
		if !c.TryHit(AccessInfo{Line: 0, Prefetch: true}) || !c.Access(AccessInfo{Line: 2, Prefetch: true}).Hit {
			t.Fatalf("observing=%t: a prefetch probe of a resident line missed", observing)
		}
		wantObserved := 0
		if observing {
			wantObserved = 2
		}
		if obs.hits != 0 || obs.victims != 0 || obs.prefetchHits != wantObserved {
			t.Errorf("observing=%t: prefetch hits reached OnHit %d, Victim %d, OnPrefetchHit %d times; want 0, 0, %d",
				observing, obs.hits, obs.victims, obs.prefetchHits, wantObserved)
		}
		if s := c.Stats; s.PrefetchProbes != probes || s.Accesses != 2+probes || s.DemandAccesses != 2 || s.PrefetchFills != 0 {
			t.Errorf("observing=%t: stats %+v, want %d prefetch probes and 2 demand accesses", observing, s, probes)
		}

		c.Access(AccessInfo{Line: 0})
		if obs.hits != 1 || obs.prefetchHits != wantObserved {
			t.Errorf("observing=%t: after a demand hit, OnHit %d and OnPrefetchHit %d calls; want 1 and %d",
				observing, obs.hits, obs.prefetchHits, wantObserved)
		}
		// A prefetch that misses a full set still asks the policy for a
		// victim: the zero counts above are not for want of wiring.
		c.Access(AccessInfo{Line: 4, Prefetch: true})
		if obs.victims != 1 {
			t.Errorf("observing=%t: a prefetch miss reached Victim %d times, want 1", observing, obs.victims)
		}
	}
}
