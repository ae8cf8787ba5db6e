package replacement

import "ripple/internal/cache"

// LRU is the baseline least-recently-used policy (the paper's reference
// point for every speedup figure). It supports demotion, which moves a line
// straight to the LRU tail — the mechanism behind the paper's "invalidation
// vs. reducing LRU priority" experiment.
type LRU struct {
	base
	stamp []uint64
	clock uint64
}

// NewLRU returns a fresh LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (p *LRU) Name() string { return "lru" }

// Reset implements cache.Policy.
func (p *LRU) Reset(sets, ways int) {
	p.reset(sets, ways)
	p.stamp = make([]uint64, sets*ways)
	p.clock = 0
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[p.idx(set, way)] = p.clock
}

// OnHit implements cache.Policy. Prefetch probes do not update recency
// (the probe filter in real designs keeps prefetcher traffic out of the
// replacement state).
func (p *LRU) OnHit(set, way int, ai cache.AccessInfo) {
	if ai.Prefetch {
		return
	}
	p.touch(set, way)
}

// OnFill implements cache.Policy.
func (p *LRU) OnFill(set, way int, ai cache.AccessInfo) { p.touch(set, way) }

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(set, way int, reref bool) {}

// Victim implements cache.Policy: the least recently touched way.
func (p *LRU) Victim(set int, ai cache.AccessInfo) int {
	best, bestStamp := 0, p.stamp[p.idx(set, 0)]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[p.idx(set, w)]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// Demote implements cache.Demoter: the way becomes the set's next victim.
func (p *LRU) Demote(set, way int) {
	p.stamp[p.idx(set, way)] = 0
}

// OverheadBytes implements Overheader using the paper's Table I
// accounting (1 bit per line for its pseudo-LRU realization).
func (p *LRU) OverheadBytes(sets, ways int) float64 {
	return float64(sets*ways) / 8
}

// OverheadNote implements Overheader.
func (p *LRU) OverheadNote() string { return "1-bit per line" }

// Words implements cache.Rewinder: a set's recency stamps.
func (p *LRU) Words(set int) []uint64 { return p.stamp[p.idx(set, 0):p.idx(set+1, 0)] }

// Global implements cache.Rewinder: the recency clock.
func (p *LRU) Global() uint64 { return p.clock }

// SetGlobal implements cache.Rewinder.
func (p *LRU) SetGlobal(clock uint64) { p.clock = clock }
