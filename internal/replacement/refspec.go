package replacement

// This file holds the probe harness's reference specifications: small,
// independent re-implementations of every catalog policy, written
// directly from each policy's published description rather than sharing
// code with the production implementations. internal/probe replays
// thousands of seeded membership-query schedules through both and fails
// on the first observable divergence, so a silent off-by-one in RRPV
// aging, counter training, or demote handling in either copy breaks the
// conformance tests instead of skewing every experiment table.
//
// The specs deliberately use a different internal structure (per-way
// structs and explicit state machines instead of flat packed arrays) so
// a transcription bug in one copy is unlikely to be mirrored in the
// other. Hash mixers, table sizes, and RNG seeds are part of each
// policy's observable contract and are restated here verbatim.

import (
	"ripple/internal/cache"
	"ripple/internal/probe"
	"ripple/internal/stats"
)

// probeAverseBelow is the aversion threshold the probe harness gives
// Hawkeye/Harmony. Under the production default (-4, i.e. never averse)
// both are black-box indistinguishable from LRU on demand streams — the
// paper's degeneracy result — so the probe variant raises the threshold
// to make the averse insertion path observable and the two policies
// mutually distinguishable.
const probeAverseBelow = -2

// ProbeZoo registers every catalog policy with the probe harness:
// production factory, independent reference spec, an optional
// probe-configured variant, and the policy's set-symmetry classes.
// probetest.TestPolicyConformance, FuzzPolicyEvents, and the
// distinguishability matrix all iterate this list, so a new policy is
// covered by registering it here (a conformance test asserts the list
// matches Names() exactly).
func ProbeZoo() []probe.Registration {
	mustNew := func(name string) func() cache.Policy {
		return func() cache.Policy {
			p, err := New(name)
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	// DRRIP's dueling leaders: every 32nd set leads SRRIP, every 32nd+1
	// leads BRRIP; only follower sets may be relabeled freely.
	drripClass := func(set int) int {
		switch set % duelStride {
		case 0:
			return 1
		case 1:
			return 2
		default:
			return 0
		}
	}
	// Hawkeye samples every 8th set; sampled sets may only trade places
	// with other sampled sets.
	hawkClass := func(set int) int {
		if set%hawkSampleStride == 0 {
			return 1
		}
		return 0
	}
	probeHawk := func(prefetchAware bool) func() cache.Policy {
		return func() cache.Policy {
			h := NewHawkeye(prefetchAware)
			h.SetAverseThreshold(probeAverseBelow)
			return h
		}
	}
	return []probe.Registration{
		{
			Name: "lru", New: mustNew("lru"),
			Ref: func() cache.Policy { return &refLRU{} },
		},
		{
			Name: "random", New: mustNew("random"),
			Ref: func() cache.Policy { return &refRandom{seed: 0x12345} },
		},
		{
			Name: "srrip", New: mustNew("srrip"),
			Ref: func() cache.Policy { return &refSRRIP{} },
		},
		{
			Name: "drrip", New: mustNew("drrip"),
			Ref:      func() cache.Policy { return &refDRRIP{} },
			SetClass: drripClass,
		},
		{
			Name: "ghrp", New: mustNew("ghrp"),
			Ref: func() cache.Policy { return &refGHRP{fixed: true} },
		},
		{
			Name: "ghrp-orig", New: mustNew("ghrp-orig"),
			Ref: func() cache.Policy { return &refGHRP{fixed: false} },
		},
		{
			Name: "hawkeye", New: mustNew("hawkeye"),
			Ref:      func() cache.Policy { return newRefHawkeye(false, hawkeyeAverseBelow) },
			ProbeNew: probeHawk(false),
			ProbeRef: func() cache.Policy { return newRefHawkeye(false, probeAverseBelow) },
			SetClass: hawkClass,
		},
		{
			Name: "harmony", New: mustNew("harmony"),
			Ref:      func() cache.Policy { return newRefHawkeye(true, hawkeyeAverseBelow) },
			ProbeNew: probeHawk(true),
			ProbeRef: func() cache.Policy { return newRefHawkeye(true, probeAverseBelow) },
			SetClass: hawkClass,
		},
		{
			Name: "ship", New: mustNew("ship"),
			Ref: func() cache.Policy { return &refSHiP{} },
		},
		{
			Name: "trrip", New: mustNew("trrip"),
			Ref: func() cache.Policy { return &refTRRIP{} },
		},
	}
}

// refMix restates the 64-bit finalizer (Stafford/MurmurHash3 variant)
// that the table-indexed policies hash signatures with. The constants
// are part of the observable contract: a reference with a different
// mixer would disagree on table aliasing.
func refMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ---------------------------------------------------------------------
// LRU: victim = the line with the oldest last-touch sequence number;
// demote zeroes a line's sequence number (ties break to the lowest way).

type refLRU struct {
	sets, ways int
	seq        [][]uint64 // [set][way] last-touch sequence
	tick       uint64
}

func (r *refLRU) Name() string { return "ref-lru" }

func (r *refLRU) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.seq = make([][]uint64, sets)
	for s := range r.seq {
		r.seq[s] = make([]uint64, ways)
	}
	r.tick = 0
}

func (r *refLRU) touch(set, way int) {
	r.tick++
	r.seq[set][way] = r.tick
}

// OnHit sees demand hits only: prefetch probes do not refresh recency.
func (r *refLRU) OnHit(set, way int, ai cache.AccessInfo) { r.touch(set, way) }

func (r *refLRU) OnFill(set, way int, ai cache.AccessInfo) { r.touch(set, way) }

func (r *refLRU) OnEvict(set, way int, reref bool) {}

func (r *refLRU) Victim(set int, ai cache.AccessInfo) int {
	row := r.seq[set]
	victim := 0
	for w := 1; w < r.ways; w++ {
		if row[w] < row[victim] {
			victim = w
		}
	}
	return victim
}

func (r *refLRU) Demote(set, way int) { r.seq[set][way] = 0 }

// ---------------------------------------------------------------------
// Random: victim = rng.Intn(ways) from a deterministic xoshiro stream
// seeded with the catalog seed; no other state.

type refRandom struct {
	ways int
	seed uint64
	rng  *stats.RNG
}

func (r *refRandom) Name() string { return "ref-random" }

func (r *refRandom) Reset(sets, ways int) {
	r.ways = ways
	r.rng = stats.NewRNG(r.seed)
}

func (r *refRandom) OnHit(set, way int, ai cache.AccessInfo) {}

func (r *refRandom) OnFill(set, way int, ai cache.AccessInfo) {}

func (r *refRandom) OnEvict(set, way int, reref bool) {}

func (r *refRandom) Victim(set int, ai cache.AccessInfo) int { return r.rng.Intn(r.ways) }

// ---------------------------------------------------------------------
// SRRIP: 2-bit re-reference prediction values. Fills insert "long"
// (distant-1), demand hits promote to "near-immediate" (0), the victim
// scan takes the first way predicted "distant" (3), aging every way by
// one until such a way exists.

const (
	refDistant = 3 // 2-bit RRPV ceiling
	refLong    = refDistant - 1
)

type refSRRIP struct {
	sets, ways int
	age        [][]uint8
}

func (r *refSRRIP) Name() string { return "ref-srrip" }

func (r *refSRRIP) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.age = newAgeRows(sets, ways, refDistant)
}

func (r *refSRRIP) OnHit(set, way int, ai cache.AccessInfo) { r.age[set][way] = 0 }

func (r *refSRRIP) OnFill(set, way int, ai cache.AccessInfo) { r.age[set][way] = refLong }

func (r *refSRRIP) OnEvict(set, way int, reref bool) {}

func (r *refSRRIP) Victim(set int, ai cache.AccessInfo) int { return rripScan(r.age[set]) }

func (r *refSRRIP) Demote(set, way int) { r.age[set][way] = refDistant }

// newAgeRows builds per-set RRPV rows initialized to v.
func newAgeRows(sets, ways int, v uint8) [][]uint8 {
	rows := make([][]uint8, sets)
	for s := range rows {
		rows[s] = make([]uint8, ways)
		for w := range rows[s] {
			rows[s][w] = v
		}
	}
	return rows
}

// rripScan is the shared RRIP victim search: first "distant" way in way
// order, aging the whole row until one appears.
func rripScan(row []uint8) int {
	for {
		for w := range row {
			if row[w] == refDistant {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// ---------------------------------------------------------------------
// DRRIP: SRRIP plus set dueling. Set k*32 leads SRRIP, set k*32+1 leads
// BRRIP; a demand miss in a leader set votes against its own insertion
// policy via a 10-bit PSEL counter, and follower sets obey the winner.
// BRRIP inserts "distant" except one fill in 32 (a dedicated seeded RNG
// stream, consulted only on BRRIP-policy fills).

type refDRRIP struct {
	sets, ways int
	age        [][]uint8
	psel       int
	rng        *stats.RNG
}

const (
	refPselMax   = 1023
	refDuel      = 32
	refBrripOdds = 32
)

func (r *refDRRIP) Name() string { return "ref-drrip" }

func (r *refDRRIP) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.age = newAgeRows(sets, ways, refDistant)
	r.psel = refPselMax / 2
	r.rng = stats.NewRNG(0xD221B)
}

func (r *refDRRIP) OnHit(set, way int, ai cache.AccessInfo) { r.age[set][way] = 0 }

func (r *refDRRIP) OnFill(set, way int, ai cache.AccessInfo) {
	brrip := false
	switch set % refDuel {
	case 0: // SRRIP leader missed: vote toward BRRIP.
		if !ai.Prefetch && r.psel < refPselMax {
			r.psel++
		}
	case 1: // BRRIP leader missed: vote toward SRRIP.
		if !ai.Prefetch && r.psel > 0 {
			r.psel--
		}
		brrip = true
	default:
		brrip = r.psel >= refPselMax/2
	}
	if !brrip {
		r.age[set][way] = refLong
		return
	}
	v := uint8(refDistant)
	if r.rng.Intn(refBrripOdds) == 0 {
		v = refLong
	}
	r.age[set][way] = v
}

func (r *refDRRIP) OnEvict(set, way int, reref bool) {}

func (r *refDRRIP) Victim(set int, ai cache.AccessInfo) int { return rripScan(r.age[set]) }

func (r *refDRRIP) Demote(set, way int) { r.age[set][way] = refDistant }

// ---------------------------------------------------------------------
// SHiP: SRRIP management plus a signature hit counter table (SHCT).
// Fills of signatures with no recorded reuse insert "distant"; the
// first demand re-reference of a filled line trains its signature up,
// an eviction without re-reference trains it down.

type refSHiP struct {
	sets, ways int
	line       [][]refSigLine
	shct       []uint8
}

// refSigLine is per-way state for the signature-trained RRIP policies.
type refSigLine struct {
	age   uint8
	sig   uint64
	reref bool
}

const refSigTableSize = 1 << 12

func (r *refSHiP) Name() string { return "ref-ship" }

func (r *refSHiP) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.line = newSigRows(sets, ways)
	r.shct = make([]uint8, refSigTableSize)
	for i := range r.shct {
		r.shct[i] = 1 // weakly no-reuse
	}
}

func newSigRows(sets, ways int) [][]refSigLine {
	rows := make([][]refSigLine, sets)
	for s := range rows {
		rows[s] = make([]refSigLine, ways)
		for w := range rows[s] {
			rows[s][w].age = refDistant
		}
	}
	return rows
}

func sigIdx(sig uint64) int { return int(refMix(sig) & (refSigTableSize - 1)) }

func (r *refSHiP) OnHit(set, way int, ai cache.AccessInfo) {
	l := &r.line[set][way]
	l.age = 0
	if !l.reref {
		l.reref = true
		if c := &r.shct[sigIdx(l.sig)]; *c < 3 {
			*c++
		}
	}
}

func (r *refSHiP) OnFill(set, way int, ai cache.AccessInfo) {
	l := &r.line[set][way]
	l.sig, l.reref = ai.Sig, false
	if r.shct[sigIdx(ai.Sig)] >= 2 {
		l.age = refLong
	} else {
		l.age = refDistant
	}
}

func (r *refSHiP) OnEvict(set, way int, reref bool) {
	l := &r.line[set][way]
	if !l.reref {
		if c := &r.shct[sigIdx(l.sig)]; *c > 0 {
			*c--
		}
	}
}

func (r *refSHiP) Victim(set int, ai cache.AccessInfo) int { return sigScan(r.line[set]) }

func (r *refSHiP) Demote(set, way int) { r.line[set][way].age = refDistant }

// sigScan is rripScan over per-way structs.
func sigScan(row []refSigLine) int {
	for {
		for w := range row {
			if row[w].age == refDistant {
				return w
			}
		}
		for w := range row {
			row[w].age++
		}
	}
}

// ---------------------------------------------------------------------
// TRRIP: three-tier temperature variant of SHiP. A 2-bit per-signature
// counter classifies fills hot (>=3: insert 0), warm (>=1: insert
// "long"), or cold (insert "distant"); the first demand re-reference
// heats a signature, an eviction without re-reference cools it.

type refTRRIP struct {
	sets, ways int
	line       [][]refSigLine
	temp       []uint8
}

func (r *refTRRIP) Name() string { return "ref-trrip" }

func (r *refTRRIP) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.line = newSigRows(sets, ways)
	r.temp = make([]uint8, refSigTableSize)
	for i := range r.temp {
		r.temp[i] = 1 // lukewarm until trained
	}
}

func (r *refTRRIP) OnHit(set, way int, ai cache.AccessInfo) {
	l := &r.line[set][way]
	l.age = 0
	if !l.reref {
		l.reref = true
		if c := &r.temp[sigIdx(l.sig)]; *c < 3 {
			*c++
		}
	}
}

func (r *refTRRIP) OnFill(set, way int, ai cache.AccessInfo) {
	l := &r.line[set][way]
	l.sig, l.reref = ai.Sig, false
	switch c := r.temp[sigIdx(ai.Sig)]; {
	case c >= 3:
		l.age = 0
	case c >= 1:
		l.age = refLong
	default:
		l.age = refDistant
	}
}

func (r *refTRRIP) OnEvict(set, way int, reref bool) {
	l := &r.line[set][way]
	if !l.reref {
		if c := &r.temp[sigIdx(l.sig)]; *c > 0 {
			*c--
		}
	}
}

func (r *refTRRIP) Victim(set int, ai cache.AccessInfo) int { return sigScan(r.line[set]) }

func (r *refTRRIP) Demote(set, way int) { r.line[set][way].age = refDistant }

// ---------------------------------------------------------------------
// GHRP: three skewed tables of 2-bit dead-block counters indexed by
// hashes of (signature, 16-bit global history). Every observed demand
// access captures its three table indices; a later hit trains them
// alive, an eviction trains them dead (published variant) or dead only
// when never re-referenced (confidence-fixed variant). Victims prefer
// the oldest predicted-dead line, falling back to plain LRU.

type refGHRP struct {
	fixed      bool
	sets, ways int
	tables     [3][]uint8
	hist       uint64
	clock      uint64
	line       [][]refGHRPLine
}

type refGHRPLine struct {
	ix   [3]int
	dead bool
	seq  uint64
}

const refGHRPTableSize = 1 << 12

func (r *refGHRP) Name() string {
	if r.fixed {
		return "ref-ghrp"
	}
	return "ref-ghrp-orig"
}

func (r *refGHRP) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	for t := range r.tables {
		r.tables[t] = make([]uint8, refGHRPTableSize)
	}
	r.hist, r.clock = 0, 0
	r.line = make([][]refGHRPLine, sets)
	for s := range r.line {
		r.line[s] = make([]refGHRPLine, ways)
	}
}

// refGHRPIndices restates the three skewed hash functions; the exact
// formulas are the spec, since they determine table aliasing.
func (r *refGHRP) indices(sig uint64) [3]int {
	const mask = refGHRPTableSize - 1
	h := r.hist
	return [3]int{
		int(refMix(sig^h) & mask),
		int(refMix(sig*0x9E3779B97F4A7C15+h) & mask),
		int(refMix((sig<<1)^(h*0xBF58476D1CE4E5B9)) & mask),
	}
}

func (r *refGHRP) predict(ix [3]int) bool {
	votes := 0
	for t, i := range ix {
		if r.tables[t][i] >= 2 {
			votes++
		}
	}
	return votes >= 2
}

func (r *refGHRP) train(ix [3]int, dead bool) {
	for t, i := range ix {
		switch {
		case dead && r.tables[t][i] < 3:
			r.tables[t][i]++
		case !dead && r.tables[t][i] > 0:
			r.tables[t][i]--
		}
	}
}

// observe captures the access context under the current history, then
// shifts the signature into the history register.
func (r *refGHRP) observe(set, way int, sig uint64) {
	l := &r.line[set][way]
	l.ix = r.indices(sig)
	l.dead = r.predict(l.ix)
	r.clock++
	l.seq = r.clock
	r.hist = (r.hist<<4 ^ refMix(sig)) & 0xFFFF
}

// OnHit sees demand hits only: GHRP observes the demand fetch stream.
func (r *refGHRP) OnHit(set, way int, ai cache.AccessInfo) {
	r.train(r.line[set][way].ix, false)
	r.observe(set, way, ai.Sig)
}

func (r *refGHRP) OnFill(set, way int, ai cache.AccessInfo) {
	r.observe(set, way, ai.Sig)
}

func (r *refGHRP) OnEvict(set, way int, reref bool) {
	ix := r.line[set][way].ix
	if r.fixed {
		r.train(ix, !reref)
	} else {
		r.train(ix, true)
	}
}

func (r *refGHRP) Victim(set int, ai cache.AccessInfo) int {
	row := r.line[set]
	dead, lru := -1, 0
	for w := range row {
		if row[w].dead && (dead < 0 || row[w].seq < row[dead].seq) {
			dead = w
		}
		if row[w].seq < row[lru].seq {
			lru = w
		}
	}
	if dead >= 0 {
		return dead
	}
	return lru
}

func (r *refGHRP) Demote(set, way int) {
	l := &r.line[set][way]
	l.seq = 0
	l.dead = true
}

// ---------------------------------------------------------------------
// Hawkeye / Harmony: a per-sampled-set MIN (or Demand-MIN) replayer
// trains 3-bit signature counters; predicted-friendly lines are managed
// RRIP-style with aging on fill, predicted-averse lines insert at
// maximal eviction priority. Victims take the highest RRPV, oldest
// first. Harmony differs only in the sampler: liveness intervals ending
// in a prefetch train their opener averse and are never charged.

type refHawkeye struct {
	prefetchAware bool
	averseBelow   int8
	sets, ways    int
	counters      []int8
	line          [][]refHawkLine
	clock         uint64
	samplers      []*refMINGen
}

type refHawkLine struct {
	age      uint8
	friendly bool
	sig      uint64
	seq      uint64
}

const (
	refHawkTableSize = 1 << 11
	refHawkMaxAge    = 7
	refHawkStride    = 8
	refHawkWindowX   = 8
)

func newRefHawkeye(prefetchAware bool, averseBelow int8) *refHawkeye {
	return &refHawkeye{prefetchAware: prefetchAware, averseBelow: averseBelow}
}

func (r *refHawkeye) Name() string {
	if r.prefetchAware {
		return "ref-harmony"
	}
	return "ref-hawkeye"
}

func (r *refHawkeye) Reset(sets, ways int) {
	r.sets, r.ways = sets, ways
	r.counters = make([]int8, refHawkTableSize)
	r.line = make([][]refHawkLine, sets)
	for s := range r.line {
		r.line[s] = make([]refHawkLine, ways)
	}
	r.clock = 0
	r.samplers = make([]*refMINGen, sets)
	for s := 0; s < sets; s += refHawkStride {
		r.samplers[s] = &refMINGen{
			ways:          ways,
			window:        ways * refHawkWindowX,
			prefetchAware: r.prefetchAware,
			occ:           make([]uint16, ways*refHawkWindowX),
			last:          map[uint64]refMINPrev{},
		}
	}
}

func hawkIdx(sig uint64) int { return int(refMix(sig) & (refHawkTableSize - 1)) }

func (r *refHawkeye) train(sig uint64, friendly bool) {
	i := hawkIdx(sig)
	switch {
	case friendly && r.counters[i] < 3:
		r.counters[i]++
	case !friendly && r.counters[i] > -4:
		r.counters[i]--
	}
}

func (r *refHawkeye) friendly(sig uint64) bool {
	return r.counters[hawkIdx(sig)] >= r.averseBelow
}

func (r *refHawkeye) sample(set int, ai cache.AccessInfo) {
	g := r.samplers[set]
	if g == nil {
		return
	}
	if known, sig, friendly := g.access(ai.Line, ai.Sig, ai.Prefetch); known {
		r.train(sig, friendly)
	}
}

func (r *refHawkeye) touch(set, way int, ai cache.AccessInfo, fill bool) {
	l := &r.line[set][way]
	r.clock++
	l.seq = r.clock
	l.sig = ai.Sig
	l.friendly = r.friendly(ai.Sig)
	if !l.friendly {
		l.age = refHawkMaxAge
		return
	}
	l.age = 0
	if fill {
		// Age the set's other friendly lines (saturating one below the
		// averse ceiling) so older friendly lines evict first.
		row := r.line[set]
		for w := range row {
			if w != way && row[w].friendly && row[w].age < refHawkMaxAge-1 {
				row[w].age++
			}
		}
	}
}

func (r *refHawkeye) OnHit(set, way int, ai cache.AccessInfo) {
	r.sample(set, ai)
	r.touch(set, way, ai, false)
}

// OnPrefetchHit feeds the sampler only: a prefetch probe refreshes no
// replacement state.
func (r *refHawkeye) OnPrefetchHit(set, way int, ai cache.AccessInfo) { r.sample(set, ai) }

func (r *refHawkeye) OnFill(set, way int, ai cache.AccessInfo) {
	r.sample(set, ai)
	r.touch(set, way, ai, true)
}

func (r *refHawkeye) OnEvict(set, way int, reref bool) {
	l := &r.line[set][way]
	if l.friendly {
		r.train(l.sig, false)
	}
}

func (r *refHawkeye) Victim(set int, ai cache.AccessInfo) int {
	row := r.line[set]
	best := 0
	for w := 1; w < len(row); w++ {
		if row[w].age > row[best].age ||
			(row[w].age == row[best].age && row[w].seq < row[best].seq) {
			best = w
		}
	}
	return best
}

func (r *refHawkeye) Demote(set, way int) {
	l := &r.line[set][way]
	l.age = refHawkMaxAge
	l.friendly = false
	l.seq = 0
}

// refMINGen replays Belady's MIN (Demand-MIN when prefetchAware) over
// one sampled set with the occupancy-vector formulation: a liveness
// interval [prev, now) is cached by the optimal schedule iff every slot
// in it still has spare capacity, and charging it fills those slots.
// The production engine additionally compacts its last-access map;
// compaction only deletes entries that would fail the window test
// anyway, so the spec omits it.
type refMINGen struct {
	ways, window  int
	prefetchAware bool
	t             int
	occ           []uint16
	last          map[uint64]refMINPrev
}

type refMINPrev struct {
	t        int
	sig      uint64
	prefetch bool
}

func (g *refMINGen) access(line, sig uint64, prefetch bool) (known bool, trainSig uint64, friendly bool) {
	if prev, seen := g.last[line]; seen && g.t-prev.t < g.window && g.t > prev.t {
		known, trainSig = true, prev.sig
		if g.prefetchAware && prefetch {
			// Demand-MIN: the interval ends in a prefetch; optimal is to
			// drop the line and re-prefetch, so the opener is averse and
			// no capacity is charged.
			friendly = false
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
			friendly = fits
		}
	}
	g.occ[g.t%g.window] = 0 // retire the slot leaving the window
	g.last[line] = refMINPrev{t: g.t, sig: sig, prefetch: prefetch}
	g.t++
	return known, trainSig, friendly
}
