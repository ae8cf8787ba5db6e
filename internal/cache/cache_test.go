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
	// First demand hit marks the prefetch useful.
	r := c.Access(AccessInfo{Line: 0})
	if !r.Hit || !r.PrefetchHit {
		t.Fatalf("demand on prefetched line: %+v", r)
	}
	if c.Stats.PrefetchUseful != 1 {
		t.Fatalf("stats = %+v", c.Stats)
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
// real cache and the reference model and checks they agree on every
// outcome and on residency of every probed line.
func TestCacheMatchesReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64} // 8 sets
	c, err := New(cfg, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
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
			if got != want {
				t.Fatalf("op %d: Invalidate(%d) = %v, ref %v", i, line, got, want)
			}
		case 1:
			got := c.Demote(line)
			want := ref.demote(line)
			if got != want {
				t.Fatalf("op %d: Demote(%d) = %v, ref %v", i, line, got, want)
			}
		default:
			res := c.Access(AccessInfo{Line: line, Sig: line})
			want := ref.access(line)
			if res.Hit != want {
				t.Fatalf("op %d: Access(%d).Hit = %v, ref %v", i, line, res.Hit, want)
			}
		}
		if c.Contains(line) != ref.contains(line) {
			t.Fatalf("op %d: residency of %d diverged", i, line)
		}
	}
}

func TestAccessResultSetAndWay(t *testing.T) {
	c := twoWay(t)
	r := c.Access(AccessInfo{Line: 3}) // odd line -> set 1
	if r.Set != 1 {
		t.Fatalf("Set = %d, want 1", r.Set)
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
