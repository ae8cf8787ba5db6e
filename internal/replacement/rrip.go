package replacement

import (
	"ripple/internal/cache"
	"ripple/internal/stats"
)

// rripMax is the 2-bit re-reference prediction value ceiling.
const rripMax = 3

// rrip is the re-reference interval prediction core (Jaleel et al.) that
// SRRIP, DRRIP, SHiP and TRRIP share: a 2-bit re-reference prediction
// value (RRPV) per line, which a demand hit resets to near-immediate and
// a victim search ages until some line in the set reaches distant. The
// policies differ in the RRPV a fill inserts at.
type rrip struct {
	base
	rrpv []uint8
}

// Reset implements cache.Policy: every line starts distant.
func (p *rrip) Reset(sets, ways int) {
	p.reset(sets, ways)
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = rripMax
	}
}

// OnHit implements cache.Policy: hit promotion to near-immediate re-use.
// Prefetch probes do not promote.
func (p *rrip) OnHit(set, way int, ai cache.AccessInfo) {
	if !ai.Prefetch {
		p.rrpv[p.idx(set, way)] = 0
	}
}

// OnEvict implements cache.Policy.
func (p *rrip) OnEvict(set, way int, reref bool) {}

// Victim implements cache.Policy: the first distant-re-reference way,
// aging the whole set until one appears.
func (p *rrip) Victim(set int, ai cache.AccessInfo) int {
	row := p.rrpv[set*p.ways : (set+1)*p.ways]
	for {
		for w := range row {
			if row[w] == rripMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// Demote implements cache.Demoter: the line is predicted distant, so it
// is the set's next victim unless re-referenced first.
func (p *rrip) Demote(set, way int) {
	p.rrpv[p.idx(set, way)] = rripMax
}

// OverheadBytes implements Overheader (Table I: 2 bits x associativity per
// set).
func (p *rrip) OverheadBytes(sets, ways int) float64 {
	return float64(2*sets*ways) / 8
}

// SRRIP (Jaleel et al.) inserts lines with a "long" re-reference
// prediction and promotes them on re-use, protecting against scans. The
// paper shows scans are rare in I-cache streams (compulsory MPKI 0.1-0.3),
// so SRRIP's pessimistic insertions cost it against LRU.
type SRRIP struct {
	rrip
}

// NewSRRIP returns a fresh SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "srrip" }

// OnFill implements cache.Policy: long re-reference insertion.
func (p *SRRIP) OnFill(set, way int, ai cache.AccessInfo) {
	p.rrpv[p.idx(set, way)] = rripMax - 1
}

// OverheadNote implements Overheader.
func (p *SRRIP) OverheadNote() string { return "2-bit RRPV per line" }

// DRRIP adds set-dueling between SRRIP and bimodal-RRIP insertion to also
// survive thrashing working sets. Leader sets steer a saturating PSEL
// counter; follower sets obey the winner. PSEL's 10 bits are below
// OverheadBytes' reporting granularity.
type DRRIP struct {
	rrip
	psel int
	rng  *stats.RNG
}

const (
	pselMax       = 1023 // 10-bit policy selector
	duelStride    = 32   // every 32nd set leads SRRIP; every 32nd+1 leads BRRIP
	brripLongOdds = 32   // BRRIP inserts "long" once in 32 fills
)

// NewDRRIP returns a fresh DRRIP policy.
func NewDRRIP() *DRRIP { return &DRRIP{} }

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "drrip" }

// Reset implements cache.Policy.
func (p *DRRIP) Reset(sets, ways int) {
	p.rrip.Reset(sets, ways)
	p.psel = pselMax / 2
	p.rng = stats.NewRNG(0xD221B)
}

// OnFill implements cache.Policy: leader sets use their fixed insertion
// policy and a miss in a leader set charges its side of the duel; follower
// sets use the currently winning insertion.
func (p *DRRIP) OnFill(set, way int, ai cache.AccessInfo) {
	useSRRIP := true
	switch set % duelStride {
	case 0: // SRRIP leader missed: vote for BRRIP.
		if !ai.Prefetch && p.psel < pselMax {
			p.psel++
		}
	case 1: // BRRIP leader missed: vote for SRRIP.
		if !ai.Prefetch && p.psel > 0 {
			p.psel--
		}
		useSRRIP = false
	default:
		useSRRIP = p.psel < pselMax/2
	}
	v := uint8(rripMax - 1)
	if !useSRRIP {
		v = rripMax
		if p.rng.Intn(brripLongOdds) == 0 {
			v = rripMax - 1
		}
	}
	p.rrpv[p.idx(set, way)] = v
}

// OverheadNote implements Overheader.
func (p *DRRIP) OverheadNote() string { return "2-bit RRPV per line + 10-bit PSEL" }

// SignatureRRIP is RRIP with a per-signature reuse predictor (SHiP's
// signature hit counter table): a 2-bit saturating counter per hashed
// signature rises when a line is first re-referenced and falls when a
// line is evicted without re-reference, and each fill inserts at the
// RRPV that its signature's counter indexes in a four-entry insertion
// table. NewSHiP and NewTRRIP build it with their own tables.
type SignatureRRIP struct {
	rrip
	name, note string
	insert     [4]uint8 // insertion RRPV by counter value
	sig        []uint64
	reref      []bool
	counter    []uint8 // indexed by hashed signature
}

const sigTableBits = 12

// NewSHiP returns a fresh SHiP policy (Wu et al., MICRO'11 —
// Signature-based Hit Predictor), one of the heuristic D-cache policies
// the paper's related-work section groups with reuse predictors. A fill
// inserts distant unless its signature's counter (starting at 1) says the
// line will be re-used, then long.
//
// Like Hawkeye, SHiP's signature degenerates for instruction streams
// (each line is its own signature), so on the paper's workloads it tracks
// SRRIP/LRU rather than beating them — it is included as an additional
// baseline for the fig3/fig7-style comparisons and ablations.
func NewSHiP() *SignatureRRIP {
	return &SignatureRRIP{
		name:   "ship",
		note:   "2-bit RRPV per line, 2-bit SHCT, per-line signatures",
		insert: [4]uint8{rripMax, rripMax, rripMax - 1, rripMax - 1},
	}
}

// NewTRRIP returns a fresh TRRIP policy — Temperature-tiered RRIP — which
// extends SHiP's binary reuse prediction to three line temperatures: a
// saturated counter marks a hot signature, inserted at near-immediate
// re-reference (RRPV 0); a counter of 1 or 2 a warm one, inserted long
// like SRRIP (untrained signatures start here); and 0 a cold one,
// inserted distant.
//
// The middle tier is the point: instruction working sets are mostly
// warm — re-referenced, but not tightly — and a binary predictor must
// round them either up (protecting everything, degenerating to LRU) or
// down (scanning everything, degenerating to SRRIP). TRRIP keeps the two
// extremes for the genuinely hot call targets and genuinely cold error
// paths, which also makes it a natural target for Ripple's demote hints:
// Demote drops a line straight to the cold tier.
func NewTRRIP() *SignatureRRIP {
	return &SignatureRRIP{
		name:   "trrip",
		note:   "2-bit RRPV per line, 2-bit temperature table, per-line signatures",
		insert: [4]uint8{rripMax, rripMax - 1, rripMax - 1, 0},
	}
}

// Name implements cache.Policy.
func (p *SignatureRRIP) Name() string { return p.name }

// Reset implements cache.Policy.
func (p *SignatureRRIP) Reset(sets, ways int) {
	p.rrip.Reset(sets, ways)
	n := sets * ways
	p.sig = make([]uint64, n)
	p.reref = make([]bool, n)
	p.counter = make([]uint8, 1<<sigTableBits)
	for i := range p.counter {
		p.counter[i] = 1 // weakly no-reuse: SHiP inserts distant, TRRIP long
	}
}

func (p *SignatureRRIP) cell(sig uint64) *uint8 {
	return &p.counter[mix64(sig)&(1<<sigTableBits-1)]
}

// OnHit implements cache.Policy: promote, and train the signature toward
// re-use on the line's first demand re-reference.
func (p *SignatureRRIP) OnHit(set, way int, ai cache.AccessInfo) {
	p.rrip.OnHit(set, way, ai)
	i := p.idx(set, way)
	if ai.Prefetch || p.reref[i] {
		return
	}
	p.reref[i] = true
	if c := p.cell(p.sig[i]); *c < 3 {
		*c++
	}
}

// OnFill implements cache.Policy: insertion at the RRPV the signature's
// counter selects.
func (p *SignatureRRIP) OnFill(set, way int, ai cache.AccessInfo) {
	i := p.idx(set, way)
	p.sig[i] = ai.Sig
	p.reref[i] = false
	p.rrpv[i] = p.insert[*p.cell(ai.Sig)]
}

// OnEvict implements cache.Policy: an eviction without re-reference
// trains the signature toward no re-use.
func (p *SignatureRRIP) OnEvict(set, way int, reref bool) {
	i := p.idx(set, way)
	if !p.reref[i] {
		if c := p.cell(p.sig[i]); *c > 0 {
			*c--
		}
	}
}

// OverheadBytes implements Overheader: 2-bit RRPV per line, the 2-bit
// counter table, and per-line 14-bit signatures + outcome bit.
func (p *SignatureRRIP) OverheadBytes(sets, ways int) float64 {
	return p.rrip.OverheadBytes(sets, ways) + float64(2*(1<<sigTableBits))/8 + float64(sets*ways)*15/8
}

// OverheadNote implements Overheader.
func (p *SignatureRRIP) OverheadNote() string { return p.note }
