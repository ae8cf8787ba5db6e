package replacement

import "ripple/internal/cache"

// GHRP (Ajorpaz et al., ISCA'18) is, per the paper, the only prior
// replacement policy designed specifically for the instruction cache. It
// predicts dead lines from a global history of access signatures: three
// skewed prediction tables of saturating counters are indexed by hashes of
// (line signature, global history); a majority vote classifies a line dead
// or alive, and replacement prefers predicted-dead lines over the LRU line.
//
// The paper observes that published GHRP *increases* dead confidence after
// every eviction even when the eviction was wrong, and evaluates a fixed
// variant that decreases confidence after evictions instead (worth +0.1%
// over LRU). NewGHRP(true) builds the fixed variant, NewGHRP(false) the
// published one.
type GHRP struct {
	base
	fixed bool

	tables  [3][]uint8 // 2-bit saturating counters
	history uint64     // global history register (paper: 2 bytes)

	// Per-line state.
	sig   []uint64 // signature of the line's last access
	pidx  [][3]int // predictor indices captured at last access (for exact training)
	dead  []bool   // dead prediction at last access
	stamp []uint64 // LRU fallback
	clock uint64
}

const (
	ghrpTableBits = 12 // 4096 counters per table (3KB total at 2 bits)
	ghrpThreshold = 2  // counter >= threshold predicts dead
)

// NewGHRP returns a GHRP instance; fixed selects the paper's
// confidence-decreasing training on evictions.
func NewGHRP(fixed bool) *GHRP { return &GHRP{fixed: fixed} }

// Name implements cache.Policy.
func (p *GHRP) Name() string {
	if p.fixed {
		return "ghrp"
	}
	return "ghrp-orig"
}

// Reset implements cache.Policy.
func (p *GHRP) Reset(sets, ways int) {
	p.reset(sets, ways)
	n := sets * ways
	for t := range p.tables {
		p.tables[t] = make([]uint8, 1<<ghrpTableBits)
	}
	p.history = 0
	p.sig = make([]uint64, n)
	p.pidx = make([][3]int, n)
	p.dead = make([]bool, n)
	p.stamp = make([]uint64, n)
	p.clock = 0
}

// indices computes the three skewed table indexes for a signature under
// the current history.
func (p *GHRP) indices(sig uint64) [3]int {
	mask := uint64(1<<ghrpTableBits - 1)
	h := p.history
	return [3]int{
		int(mix64(sig^h) & mask),
		int(mix64(sig*0x9E3779B97F4A7C15+h) & mask),
		int(mix64((sig<<1)^(h*0xBF58476D1CE4E5B9)) & mask),
	}
}

// predict returns the majority dead vote for the given table indexes.
func (p *GHRP) predict(ix [3]int) bool {
	votes := 0
	for t := range p.tables {
		if p.tables[t][ix[t]] >= ghrpThreshold {
			votes++
		}
	}
	return votes >= 2
}

// train moves the counters at ix toward dead (+1) or alive (-1).
func (p *GHRP) train(ix [3]int, dead bool) {
	for t := range p.tables {
		c := p.tables[t][ix[t]]
		if dead {
			if c < 3 {
				p.tables[t][ix[t]] = c + 1
			}
		} else if c > 0 {
			p.tables[t][ix[t]] = c - 1
		}
	}
}

// observe records an access to (set,way): recompute the prediction under
// the new history, capture training indexes, and push the signature into
// the history register.
func (p *GHRP) observe(set, way int, sig uint64) {
	i := p.idx(set, way)
	ix := p.indices(sig)
	p.sig[i] = sig
	p.pidx[i] = ix
	p.dead[i] = p.predict(ix)
	p.clock++
	p.stamp[i] = p.clock
	p.history = (p.history<<4 ^ mix64(sig)) & 0xFFFF
}

// OnHit implements cache.Policy: a demand hit proves the line was alive;
// train its last-access context toward alive, then observe the new
// access. GHRP observes the fetch stream only: it is no
// cache.PrefetchObserver, so prefetch probes neither train the tables nor
// pollute the history register.
func (p *GHRP) OnHit(set, way int, ai cache.AccessInfo) {
	p.train(p.pidx[p.idx(set, way)], false)
	p.observe(set, way, ai.Sig)
}

// OnFill implements cache.Policy.
func (p *GHRP) OnFill(set, way int, ai cache.AccessInfo) {
	p.observe(set, way, ai.Sig)
}

// OnEvict implements cache.Policy: published GHRP reinforces the dead
// classification of whatever it evicts; the fixed variant backs the
// confidence off instead, so only hits (true liveness evidence) and the
// passage of history drive the tables.
func (p *GHRP) OnEvict(set, way int, reref bool) {
	ix := p.pidx[p.idx(set, way)]
	if p.fixed {
		// Confidence-fixed variant: only a never-re-referenced eviction
		// is evidence of death; otherwise back the confidence off.
		p.train(ix, !reref)
	} else {
		p.train(ix, true)
	}
}

// Victim implements cache.Policy: prefer predicted-dead lines (oldest
// first), falling back to plain LRU.
func (p *GHRP) Victim(set int, ai cache.AccessInfo) int {
	bestDead, bestDeadStamp := -1, ^uint64(0)
	bestLRU, bestStamp := 0, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		i := p.idx(set, w)
		if p.dead[i] && p.stamp[i] < bestDeadStamp {
			bestDead, bestDeadStamp = w, p.stamp[i]
		}
		if p.stamp[i] < bestStamp {
			bestLRU, bestStamp = w, p.stamp[i]
		}
	}
	if bestDead >= 0 {
		return bestDead
	}
	return bestLRU
}

// Demote implements cache.Demoter.
func (p *GHRP) Demote(set, way int) {
	i := p.idx(set, way)
	p.stamp[i] = 0
	p.dead[i] = true
}

// OverheadBytes implements Overheader, reproducing Table I: a 3KB
// prediction table (3 x 4096 x 2 bits), 64B of per-line prediction bits,
// 1KB of per-line signatures, and a 2B history register.
func (p *GHRP) OverheadBytes(sets, ways int) float64 {
	lines := float64(sets * ways)
	predictor := float64(3*(1<<ghrpTableBits)*2) / 8
	predBits := lines / 8
	signatures := lines * 2 // 16-bit stored signatures
	return predictor + predBits + signatures + 2
}

// OverheadNote implements Overheader.
func (p *GHRP) OverheadNote() string {
	return "3KB prediction tables, per-line dead bits + 16-bit signatures, 2B history"
}
