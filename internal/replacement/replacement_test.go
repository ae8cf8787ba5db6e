package replacement

import (
	"testing"
	"testing/quick"

	"ripple/internal/cache"
	"ripple/internal/stats"
)

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("nonsense"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFreshInstancesPerCall(t *testing.T) {
	a, _ := New("lru")
	b, _ := New("lru")
	if a == b {
		t.Fatal("New returned a shared instance")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	p := NewLRU()
	p.Reset(1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, cache.AccessInfo{})
	}
	// Touch 0 and 2; victim must be 1 (least recently used).
	p.OnHit(0, 0, cache.AccessInfo{})
	p.OnHit(0, 2, cache.AccessInfo{})
	if v := p.Victim(0, cache.AccessInfo{}); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	// Demote 3 makes it the victim.
	p.Demote(0, 3)
	if v := p.Victim(0, cache.AccessInfo{}); v != 3 {
		t.Fatalf("victim after demote = %d, want 3", v)
	}
}

func TestLRUIgnoresPrefetchProbeRecency(t *testing.T) {
	p := NewLRU()
	p.Reset(1, 2)
	p.OnFill(0, 0, cache.AccessInfo{})
	p.OnFill(0, 1, cache.AccessInfo{})
	// A prefetch probe hit on way 0 must not promote it.
	p.OnHit(0, 0, cache.AccessInfo{Prefetch: true})
	if v := p.Victim(0, cache.AccessInfo{}); v != 0 {
		t.Fatalf("victim = %d; prefetch probe promoted way 0", v)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	p := NewSRRIP()
	p.Reset(1, 2)
	// Way 0 is re-referenced (promoted to rrpv 0); way 1 is a fresh
	// insertion (rrpv 2). The scan victim must be way 1.
	p.OnFill(0, 0, cache.AccessInfo{})
	p.OnHit(0, 0, cache.AccessInfo{})
	p.OnFill(0, 1, cache.AccessInfo{})
	if v := p.Victim(0, cache.AccessInfo{}); v != 1 {
		t.Fatalf("victim = %d, want the unpromoted scan line", v)
	}
	p.Demote(0, 0)
	if v := p.Victim(0, cache.AccessInfo{}); v != 0 {
		t.Fatalf("victim after demote = %d", v)
	}
}

func TestDRRIPDuelingMovesPSEL(t *testing.T) {
	p := NewDRRIP()
	p.Reset(64, 2)
	start := p.psel
	// Misses (fills) in SRRIP leader sets (set 0, 32) vote for BRRIP.
	for i := 0; i < 10; i++ {
		p.OnFill(0, 0, cache.AccessInfo{})
	}
	if p.psel <= start {
		t.Fatalf("psel did not move on SRRIP-leader misses: %d -> %d", start, p.psel)
	}
	// Misses in BRRIP leader sets (set 1) vote back.
	for i := 0; i < 20; i++ {
		p.OnFill(1, 0, cache.AccessInfo{})
	}
	if p.psel >= start+10 {
		t.Fatalf("psel did not move back on BRRIP-leader misses: %d", p.psel)
	}
}

func TestGHRPOriginalLearnsDeadOnEvict(t *testing.T) {
	p := NewGHRP(false)
	p.Reset(1, 2)
	ai := cache.AccessInfo{Line: 7, Sig: 7}
	p.OnFill(0, 0, ai)
	// Repeated evictions of the same context reinforce "dead".
	for i := 0; i < 4; i++ {
		p.OnEvict(0, 0, false)
	}
	ix := p.pidx[p.idx(0, 0)]
	if !p.predict(ix) {
		t.Fatal("original GHRP did not learn dead after repeated evictions")
	}
}

func TestGHRPFixedBacksOffOnPrematureEvict(t *testing.T) {
	p := NewGHRP(true)
	p.Reset(1, 2)
	ai := cache.AccessInfo{Line: 7, Sig: 7}
	p.OnFill(0, 0, ai)
	ix := p.pidx[p.idx(0, 0)]
	// Teach dead via never-re-referenced evictions...
	p.train(ix, true)
	p.train(ix, true)
	if !p.predict(ix) {
		t.Fatal("setup: counters should predict dead")
	}
	// ...then a premature eviction (line had been re-referenced) must
	// decrease confidence.
	p.OnEvict(0, 0, true)
	p.OnEvict(0, 0, true)
	if p.predict(ix) {
		t.Fatal("fixed GHRP kept dead confidence after premature evictions")
	}
}

func TestHawkeyeDefaultsToFriendly(t *testing.T) {
	p := NewHawkeye(false)
	p.Reset(64, 8)
	// With the paper-default aversion threshold, everything is friendly
	// and Hawkeye behaves LRU-like: the victim is the oldest line, not a
	// fresh insertion.
	for w := 0; w < 8; w++ {
		p.OnFill(0, w, cache.AccessInfo{Line: uint64(w * 64), Sig: uint64(w * 64)})
	}
	if v := p.Victim(0, cache.AccessInfo{}); v != 0 {
		t.Fatalf("victim = %d, want oldest (0)", v)
	}
}

func TestHawkeyeAversionThrashes(t *testing.T) {
	// Demonstrates why the default threshold is full saturation: with a
	// permissive threshold, a signature whose intervals never fit pegs
	// averse and its line is inserted at eviction priority.
	p := NewHawkeye(false)
	p.SetAverseThreshold(-2)
	p.Reset(64, 8)
	sig := uint64(0x1234)
	for i := 0; i < 8; i++ {
		p.trainFriendly(sig, false)
	}
	if p.predictFriendly(sig) {
		t.Fatal("saturated-negative signature still predicted friendly")
	}
	p.OnFill(0, 3, cache.AccessInfo{Line: sig, Sig: sig})
	if v := p.Victim(0, cache.AccessInfo{}); v != 3 {
		t.Fatalf("averse line not first victim: way %d", v)
	}
}

func TestOptgenIntervalFits(t *testing.T) {
	g := newOptgen(2, 16, false)
	// Lines A, B alternate: every interval holds 1 concurrent liveness,
	// fits a 2-way set, trains friendly.
	for i := 0; i < 6; i++ {
		out := g.access(uint64(i%2), uint64(i%2), false)
		if i >= 2 {
			if !out.known || !out.friendly {
				t.Fatalf("access %d: outcome %+v, want friendly", i, out)
			}
		}
	}
}

func TestOptgenOverflowTrainsAverse(t *testing.T) {
	// 1-way set: two *reused* lines cannot both be live. (A never-reused
	// line occupies nothing in OPTgen — standard Hawkeye semantics.)
	g := newOptgen(1, 16, false)
	g.access(1, 1, false) // A opens
	g.access(2, 2, false) // B opens
	out := g.access(2, 2, false)
	if !out.known || !out.friendly {
		t.Fatalf("B reuse outcome %+v, want friendly", out)
	}
	// A's interval [0,3) now overlaps B's charged slot: averse.
	out = g.access(1, 1, false)
	if !out.known || out.friendly {
		t.Fatalf("A reuse outcome %+v, want averse on capacity overflow", out)
	}
}

func TestOptgenDemandMINPrefetchEndingIsAverse(t *testing.T) {
	g := newOptgen(4, 16, true)
	g.access(1, 1, false)
	out := g.access(1, 1, true) // interval ends in a prefetch
	if !out.known || out.friendly {
		t.Fatalf("outcome %+v, want averse (prefetch-ending interval)", out)
	}
}

func TestOverheadsMatchTableI(t *testing.T) {
	// 32KB, 8-way, 64B lines: 64 sets.
	const sets, ways = 64, 8
	check := func(name string, want float64, tol float64) {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		ov := p.(Overheader).OverheadBytes(sets, ways)
		if ov < want-tol || ov > want+tol {
			t.Fatalf("%s overhead = %.0fB, want %.0fB (+-%.0f)", name, ov, want, tol)
		}
	}
	check("lru", 64, 0)
	check("random", 0, 0)
	check("srrip", 128, 0)
	check("drrip", 128, 0)
	// Table I says "4.13KB" but its own breakdown (3KB tables + 64B
	// prediction bits + 1KB signatures + 2B history) sums to 4162B; we
	// reproduce the breakdown.
	check("ghrp", 4162, 8)
	check("hawkeye", 5.19*1024, 300)
}

// TestVictimAlwaysInRange drives every policy with a random access stream
// through a real cache and relies on the cache's own panic on
// out-of-range victims; it also checks policies never pick an invalid way
// implicitly by verifying the cache stays consistent.
func TestVictimAlwaysInRange(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}
	for _, name := range Names() {
		p, _ := New(name)
		c, err := cache.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(0xABC)
		if err := quick.Check(func(l uint16, pf bool) bool {
			line := uint64(l % 512)
			c.Access(cache.AccessInfo{Line: line, Sig: line, Prefetch: pf})
			if rng.Bool(0.05) {
				c.Invalidate(uint64(rng.Intn(512)))
			}
			if rng.Bool(0.05) {
				c.Demote(uint64(rng.Intn(512)))
			}
			return true
		}, &quick.Config{MaxCount: 3000}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPoliciesBeatNothing sanity-checks that every policy produces a
// plausible hit rate on a highly local stream (far better than random
// line shuffling would).
func TestPoliciesKeepHotLines(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64} // 16 sets
	for _, name := range Names() {
		p, _ := New(name)
		c, err := cache.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		// 32 hot lines re-accessed round-robin fit the 64-line cache.
		for i := 0; i < 4000; i++ {
			line := uint64(i % 32)
			c.Access(cache.AccessInfo{Line: line, Sig: line})
		}
		hitRate := 1 - float64(c.Stats.DemandMisses)/float64(c.Stats.DemandAccesses)
		if hitRate < 0.95 {
			t.Fatalf("%s: hit rate %.2f on a fitting working set", name, hitRate)
		}
	}
}

func TestSHiPTrainsSignatures(t *testing.T) {
	p := NewSHiP()
	p.Reset(1, 2)
	sig := uint64(0x40)
	// Cold signature inserts distant.
	p.OnFill(0, 0, cache.AccessInfo{Line: sig, Sig: sig})
	if p.rrpv[0] != rripMax {
		t.Fatalf("cold insertion rrpv = %d, want %d", p.rrpv[0], rripMax)
	}
	// A hit trains the SHCT toward re-use; after enough hits, fills of the
	// same signature insert near.
	p.OnHit(0, 0, cache.AccessInfo{Line: sig, Sig: sig})
	p.OnFill(0, 1, cache.AccessInfo{Line: sig, Sig: sig})
	if p.rrpv[1] != rripMax-1 {
		t.Fatalf("trained insertion rrpv = %d, want %d", p.rrpv[1], rripMax-1)
	}
	// Eviction without re-reference trains back down.
	p.OnEvict(0, 1, false)
	p.OnEvict(0, 1, false)
	p.OnFill(0, 1, cache.AccessInfo{Line: sig, Sig: sig})
	if p.rrpv[1] != rripMax {
		t.Fatalf("detrained insertion rrpv = %d, want %d", p.rrpv[1], rripMax)
	}
}

func TestGHRPVictimPrefersDead(t *testing.T) {
	p := NewGHRP(false)
	p.Reset(1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, cache.AccessInfo{Line: uint64(w), Sig: uint64(w)})
	}
	// Force way 2's dead bit.
	p.dead[p.idx(0, 2)] = true
	if v := p.Victim(0, cache.AccessInfo{}); v != 2 {
		t.Fatalf("victim = %d, want predicted-dead way 2", v)
	}
	// Without dead predictions, LRU fallback picks the oldest (way 0).
	p.dead[p.idx(0, 2)] = false
	if v := p.Victim(0, cache.AccessInfo{}); v != 0 {
		t.Fatalf("victim = %d, want LRU way 0", v)
	}
}

func TestHarmonySamplerSeesPrefetches(t *testing.T) {
	p := NewHawkeye(true)
	p.Reset(64, 8)
	// Set 0 is sampled (stride 8). A demand open followed by a prefetch
	// to the same line trains the opener averse under Demand-MIN-gen.
	sig := uint64(64) // maps to set 0
	p.OnFill(0, 0, cache.AccessInfo{Line: sig, Sig: sig})
	before := p.counters[p.counterIdx(sig)]
	p.OnHit(0, 0, cache.AccessInfo{Line: sig, Sig: sig, Prefetch: true})
	after := p.counters[p.counterIdx(sig)]
	if after >= before {
		t.Fatalf("prefetch-ending interval did not train averse: %d -> %d", before, after)
	}
}

func TestRandomDeterministicSeed(t *testing.T) {
	a := NewRandom(7)
	a.Reset(4, 4)
	b := NewRandom(7)
	b.Reset(4, 4)
	for i := 0; i < 200; i++ {
		if a.Victim(i%4, cache.AccessInfo{}) != b.Victim(i%4, cache.AccessInfo{}) {
			t.Fatal("same-seed Random policies diverged")
		}
	}
}

func TestResetClearsLearnedState(t *testing.T) {
	for _, name := range Names() {
		p, _ := New(name)
		p.Reset(4, 2)
		// Exercise the policy, then reset and check victims are identical
		// to a fresh instance's (no state leaks across Reset).
		for i := 0; i < 100; i++ {
			ai := cache.AccessInfo{Line: uint64(i % 8), Sig: uint64(i % 8)}
			p.OnFill(i%4, i%2, ai)
			p.OnHit(i%4, (i+1)%2, ai)
		}
		p.Reset(4, 2)
		fresh, _ := New(name)
		fresh.Reset(4, 2)
		for set := 0; set < 4; set++ {
			if p.Victim(set, cache.AccessInfo{}) != fresh.Victim(set, cache.AccessInfo{}) {
				t.Fatalf("%s: Reset did not clear state (set %d)", name, set)
			}
		}
	}
}

func TestTRRIPTemperatureTiers(t *testing.T) {
	p := NewTRRIP()
	p.Reset(1, 2)
	sig := uint64(0x80)
	ai := cache.AccessInfo{Line: sig, Sig: sig}
	// Untrained signatures start lukewarm: SRRIP-like "long" insertion.
	p.OnFill(0, 0, ai)
	if p.rrpv[0] != rripMax-1 {
		t.Fatalf("lukewarm insertion rrpv = %d, want %d", p.rrpv[0], rripMax-1)
	}
	// Two fill+hit generations heat the signature to the hot tier.
	p.OnHit(0, 0, ai)
	p.OnFill(0, 0, ai)
	p.OnHit(0, 0, ai)
	p.OnFill(0, 1, ai)
	if p.rrpv[1] != 0 {
		t.Fatalf("hot insertion rrpv = %d, want 0", p.rrpv[1])
	}
	// Repeated evictions without re-reference cool it to the cold tier.
	for i := 0; i < 3; i++ {
		p.OnFill(0, 1, ai)
		p.OnEvict(0, 1, false)
	}
	p.OnFill(0, 1, ai)
	if p.rrpv[1] != rripMax {
		t.Fatalf("cold insertion rrpv = %d, want %d", p.rrpv[1], rripMax)
	}
	// Demote drops a line straight to the cold tier.
	p.OnFill(0, 0, ai)
	p.OnHit(0, 0, ai)
	p.Demote(0, 0)
	if v := p.Victim(0, cache.AccessInfo{}); v != 0 {
		t.Fatalf("victim after demote = %d, want 0", v)
	}
}
