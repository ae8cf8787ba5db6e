package replacement

import "ripple/internal/cache"

// Hawkeye (Jain & Lin, ISCA'16) learns from Belady's MIN: a sampler
// reconstructs what the optimal policy *would have done* on a few sets
// (OPTgen) and trains a predictor that classifies access signatures as
// cache-friendly or cache-averse; friendly lines are managed RRIP-style,
// averse lines are inserted at maximal eviction priority.
//
// Harmony (Jain & Lin, ISCA'18) is its prefetch-aware successor: the
// sampler runs Demand-MIN instead of MIN, so liveness intervals that end in
// a prefetch are free (the line could have been evicted and re-prefetched)
// and train their opener toward averse.
//
// The paper's key negative result (Sec. II-D) is that for *instruction*
// caches the signature is the line itself, each signature maps to one line,
// and a line with many friendly accesses and one averse access is always
// predicted friendly — so Hawkeye/Harmony degenerate to LRU. This
// implementation reproduces exactly that behavior.
type Hawkeye struct {
	base
	prefetchAware bool // Harmony when true
	averse        int8 // aversion threshold (hawkeyeAverseBelow unless set)

	counters []int8 // 3-bit saturating signature counters [-4, 3]

	// Per-line cache state.
	rrpv     []uint8
	friendly []bool
	sig      []uint64
	clock    uint64
	stamp    []uint64

	samplers []*optgen // one per sampled set, nil elsewhere
}

const (
	hawkTableBits    = 11 // 2048 predictor counters
	hawkMaxRRPV      = 7
	hawkSampleStride = 8 // every 8th set is sampled
	hawkHistoryMult  = 8 // OPTgen window: 8x associativity
)

// NewHawkeye builds Hawkeye, or Harmony when prefetchAware is true.
func NewHawkeye(prefetchAware bool) *Hawkeye {
	return &Hawkeye{prefetchAware: prefetchAware, averse: hawkeyeAverseBelow}
}

// Name implements cache.Policy.
func (p *Hawkeye) Name() string {
	if p.prefetchAware {
		return "harmony"
	}
	return "hawkeye"
}

// Reset implements cache.Policy.
func (p *Hawkeye) Reset(sets, ways int) {
	p.reset(sets, ways)
	n := sets * ways
	p.counters = make([]int8, 1<<hawkTableBits)
	p.rrpv = make([]uint8, n)
	p.friendly = make([]bool, n)
	p.sig = make([]uint64, n)
	p.stamp = make([]uint64, n)
	p.clock = 0
	p.samplers = make([]*optgen, sets)
	for s := 0; s < sets; s += hawkSampleStride {
		p.samplers[s] = newOptgen(ways, ways*hawkHistoryMult, p.prefetchAware)
	}
}

func (p *Hawkeye) counterIdx(sig uint64) int {
	return int(mix64(sig) & (1<<hawkTableBits - 1))
}

func (p *Hawkeye) trainFriendly(sig uint64, friendly bool) {
	i := p.counterIdx(sig)
	if friendly {
		if p.counters[i] < 3 {
			p.counters[i]++
		}
	} else if p.counters[i] > -4 {
		p.counters[i]--
	}
}

// hawkeyeAverseBelow is the confidence threshold below which a signature
// counter (saturating in [-4, 3]) classifies a line cache-averse. The
// default of -4 (below the saturation floor, i.e. never) reproduces the
// paper's I-cache observation: because each I-stream signature maps to
// exactly one line, Hawkeye/Harmony classify >99% of signatures friendly
// and degenerate to LRU. Raising the threshold (e.g. -2) lets aversion
// fire and demonstrates the failure mode the observation protects against:
// mid-reuse instruction lines peg averse, get inserted at eviction
// priority, and thrash (see TestHawkeyeAversionThrashes).
const hawkeyeAverseBelow int8 = -4

// SetAverseThreshold overrides the default hawkeyeAverseBelow for this
// instance. The probe harness raises it (to -2) so the averse insertion
// path becomes black-box observable — under the production default,
// Hawkeye/Harmony are behaviorally indistinguishable from LRU on demand
// streams, which is exactly the paper's degeneracy argument. The
// override is configuration, not learned state: Reset preserves it.
func (p *Hawkeye) SetAverseThreshold(t int8) {
	p.averse = t
}

func (p *Hawkeye) predictFriendly(sig uint64) bool {
	return p.counters[p.counterIdx(sig)] >= p.averse
}

// sample feeds the access to the set's OPTgen (if sampled) and trains the
// predictor with the simulated optimal outcome.
func (p *Hawkeye) sample(set int, ai cache.AccessInfo) {
	g := p.samplers[set]
	if g == nil {
		return
	}
	outcome := g.access(ai.Line, ai.Sig, ai.Prefetch)
	if outcome.known {
		p.trainFriendly(outcome.trainSig, outcome.friendly)
	}
}

// touch refreshes a line's state on hit or fill.
func (p *Hawkeye) touch(set, way int, ai cache.AccessInfo, fill bool) {
	i := p.idx(set, way)
	p.clock++
	p.stamp[i] = p.clock
	p.sig[i] = ai.Sig
	friendly := p.predictFriendly(ai.Sig)
	p.friendly[i] = friendly
	if friendly {
		p.rrpv[i] = 0
		if fill {
			// Age other friendly lines so older friendly lines become
			// evictable before newer ones.
			row := p.rrpv[set*p.ways : (set+1)*p.ways]
			for w := range row {
				if w != way && p.friendly[p.idx(set, w)] && row[w] < hawkMaxRRPV-1 {
					row[w]++
				}
			}
		}
	} else {
		p.rrpv[i] = hawkMaxRRPV
	}
}

// OnHit implements cache.Policy. The sampler sees every access (Harmony's
// Demand-MIN-gen needs the prefetch events), but prefetch probes do not
// refresh replacement state.
func (p *Hawkeye) OnHit(set, way int, ai cache.AccessInfo) {
	p.sample(set, ai)
	if ai.Prefetch {
		return
	}
	p.touch(set, way, ai, false)
}

// OnFill implements cache.Policy.
func (p *Hawkeye) OnFill(set, way int, ai cache.AccessInfo) {
	p.sample(set, ai)
	p.touch(set, way, ai, true)
}

// OnEvict implements cache.Policy: evicting a line the predictor thought
// friendly is evidence against its signature.
func (p *Hawkeye) OnEvict(set, way int, reref bool) {
	i := p.idx(set, way)
	if p.friendly[i] {
		p.trainFriendly(p.sig[i], false)
	}
}

// Victim implements cache.Policy: cache-averse lines (rrpv==max) go first;
// otherwise the oldest friendly line is evicted.
func (p *Hawkeye) Victim(set int, ai cache.AccessInfo) int {
	row := p.rrpv[set*p.ways : (set+1)*p.ways]
	best, bestV, bestStamp := 0, uint8(0), ^uint64(0)
	for w := range row {
		i := p.idx(set, w)
		if row[w] > bestV || (row[w] == bestV && p.stamp[i] < bestStamp) {
			best, bestV, bestStamp = w, row[w], p.stamp[i]
		}
	}
	return best
}

// Demote implements cache.Demoter.
func (p *Hawkeye) Demote(set, way int) {
	i := p.idx(set, way)
	p.rrpv[i] = hawkMaxRRPV
	p.friendly[i] = false
	p.stamp[i] = 0
}

// OverheadBytes implements Overheader, reproducing Table I: 1KB sampler,
// 1KB occupancy vectors, 3KB predictor, 192B of RRIP counters.
func (p *Hawkeye) OverheadBytes(sets, ways int) float64 {
	sampled := (sets + hawkSampleStride - 1) / hawkSampleStride
	samplerEntries := sampled * ways * hawkHistoryMult
	sampler := float64(samplerEntries) * 2   // ~2B per history entry
	occupancy := float64(samplerEntries) * 2 // parallel occupancy counts
	predictor := float64(3*(1<<hawkTableBits)) / 8 * 4
	rripBits := float64(sets*ways) * 3 / 8
	return sampler + occupancy + predictor + rripBits
}

// OverheadNote implements Overheader.
func (p *Hawkeye) OverheadNote() string {
	return "set sampler + occupancy vectors + 3-bit signature counters + RRIP state"
}

// optOutcome is what one sampled access teaches the predictor.
type optOutcome struct {
	known    bool
	trainSig uint64
	friendly bool
}

// optgen replays Belady's MIN (or Demand-MIN) over the recent access
// history of one sampled set using the standard occupancy-vector
// formulation: a liveness interval [prev, now) fits iff every time slot in
// it still has spare capacity under the optimal schedule.
type optgen struct {
	ways          int
	window        int
	prefetchAware bool

	t    int      // virtual time (slot index)
	occ  []uint16 // occupancy per slot, ring-indexed by t%window
	last map[uint64]optPrev
}

type optPrev struct {
	t        int
	sig      uint64
	prefetch bool
}

func newOptgen(ways, window int, prefetchAware bool) *optgen {
	return &optgen{
		ways:          ways,
		window:        window,
		prefetchAware: prefetchAware,
		occ:           make([]uint16, window),
		last:          map[uint64]optPrev{},
	}
}

// access registers one access and returns the training outcome for the
// previous access to the same line (if it is still inside the window).
func (g *optgen) access(line, sig uint64, prefetch bool) optOutcome {
	out := optOutcome{}
	prev, seen := g.last[line]
	if seen && g.t-prev.t < g.window && g.t > prev.t {
		if g.prefetchAware && prefetch {
			// Demand-MIN: the interval ends in a prefetch, so optimal
			// behavior is to evict early and let the prefetcher re-fetch:
			// the opener is cache-averse and the interval is never charged.
			out = optOutcome{known: true, trainSig: prev.sig, friendly: false}
		} else {
			fits := true
			for k := prev.t; k < g.t; k++ {
				if g.occ[k%g.window] >= uint16(g.ways) {
					fits = false
					break
				}
			}
			if fits {
				for k := prev.t; k < g.t; k++ {
					g.occ[k%g.window]++
				}
			}
			out = optOutcome{known: true, trainSig: prev.sig, friendly: fits}
		}
	}
	g.occ[g.t%g.window] = 0 // retire the slot that now leaves the window
	g.last[line] = optPrev{t: g.t, sig: sig, prefetch: prefetch}
	g.t++
	if len(g.last) > 8*g.window {
		g.compact()
	}
	return out
}

// compact drops stale entries so the map stays proportional to the window.
func (g *optgen) compact() {
	for line, prev := range g.last {
		if g.t-prev.t >= g.window {
			delete(g.last, line)
		}
	}
}
