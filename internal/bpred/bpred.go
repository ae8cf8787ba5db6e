// Package bpred implements the branch-prediction front end that drives
// fetch-directed instruction prefetching (FDIP): a gshare/bimodal hybrid
// direction predictor with a chooser, a return-address stack, and a
// path-history-hashed indirect target predictor.
//
// The predictor keeps two copies of its speculative state (global history
// and RAS): the *committed* copy advances at retirement with actual
// outcomes, while the *speculative* copy advances along the predicted path
// as FDIP's runahead engine walks ahead of fetch. On a misprediction the
// speculative copy is resynchronized from the committed one — exactly the
// squash-and-restart behavior that makes some lines hard to prefetch
// (Observation #2 in Sec. II-C of the paper).
//
// Taken control transfers (jumps, calls, taken conditional branches) also
// need their target from a finite branch target buffer at fetch time; on a
// BTB miss the runahead walk cannot continue past the branch. For
// data-center instruction footprints the BTB is a first-order limiter of
// fetch-directed prefetching (cf. AsmDB), so it is modeled with partial
// tags: capacity misses stall the walk and rare tag aliases send it down a
// bogus path, producing exactly the wasteful prefetches the paper's ideal
// replacement policy cleans up.
package bpred

import (
	"ripple/internal/isa"
	"ripple/internal/program"
)

// Config sizes the predictor tables.
type Config struct {
	GshareBits   int // log2 gshare counters
	BimodalBits  int // log2 bimodal counters
	ChooserBits  int // log2 chooser counters
	IndirectBits int // log2 indirect-target entries
	BTBBits      int // log2 branch-target-buffer entries
	RASDepth     int
	HistoryBits  int // global-history length used in the gshare index
}

// DefaultConfig returns a Haswell-class configuration. The tables are
// deliberately modest: data-center instruction footprints alias in
// realistically sized predictors, and that aliasing (plus indirect-target
// cold misses) is what bounds FDIP's reach in the paper.
func DefaultConfig() Config {
	return Config{
		GshareBits:   12,
		BimodalBits:  11,
		ChooserBits:  11,
		IndirectBits: 9,
		BTBBits:      10,
		RASDepth:     16,
		HistoryBits:  12,
	}
}

// indEntry is one indirect-target table entry.
type indEntry struct {
	tag    uint16
	target program.BlockID
	conf   uint8
}

// btbEntry is one direct-mapped BTB entry; the 10-bit partial tag admits
// rare aliases (bogus runahead paths), like real designs.
type btbEntry struct {
	tag    uint16
	target program.BlockID
	valid  bool
}

// ras is a fixed-depth circular return-address stack.
type ras struct {
	buf []program.BlockID
	top int // number of live entries, capped at depth
}

func newRAS(depth int) ras { return ras{buf: make([]program.BlockID, depth)} }

func (r *ras) push(b program.BlockID) {
	if r.top < len(r.buf) {
		r.buf[r.top] = b
		r.top++
		return
	}
	// Overflow: drop the oldest entry (shift is fine at this depth and
	// frequency; real hardware wraps, with the same loss of the oldest).
	copy(r.buf, r.buf[1:])
	r.buf[len(r.buf)-1] = b
}

func (r *ras) pop() (program.BlockID, bool) {
	if r.top == 0 {
		return program.NoBlock, false
	}
	r.top--
	return r.buf[r.top], true
}

func (r *ras) copyFrom(o *ras) {
	copy(r.buf, o.buf)
	r.top = o.top
}

// Predictor is the full front-end prediction state.
type Predictor struct {
	cfg Config

	gshare  []uint8 // 2-bit counters
	bimodal []uint8
	chooser []uint8 // 2-bit: >=2 selects gshare

	indirect []indEntry
	btb      []btbEntry

	committedGHR uint64
	specGHR      uint64
	committedRAS ras
	specRAS      ras

	// Stats
	CondPredictions uint64
	CondMispredicts uint64
	IndPredictions  uint64
	IndMispredicts  uint64
	RetPredictions  uint64
	RetMispredicts  uint64
}

// New builds a predictor with weakly-not-taken initial counters.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:          cfg,
		gshare:       make([]uint8, 1<<cfg.GshareBits),
		bimodal:      make([]uint8, 1<<cfg.BimodalBits),
		chooser:      make([]uint8, 1<<cfg.ChooserBits),
		indirect:     make([]indEntry, 1<<cfg.IndirectBits),
		btb:          make([]btbEntry, 1<<cfg.BTBBits),
		committedRAS: newRAS(cfg.RASDepth),
		specRAS:      newRAS(cfg.RASDepth),
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

func hashPC(b program.BlockID) uint64 {
	x := uint64(b) * 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

func (p *Predictor) gshareIdx(b program.BlockID, ghr uint64) int {
	mask := uint64(1<<p.cfg.GshareBits) - 1
	hist := ghr & (uint64(1<<p.cfg.HistoryBits) - 1)
	return int((hashPC(b) ^ hist) & mask)
}

func (p *Predictor) bimodalIdx(b program.BlockID) int {
	return int(hashPC(b) & (uint64(1<<p.cfg.BimodalBits) - 1))
}

func (p *Predictor) chooserIdx(b program.BlockID) int {
	return int(hashPC(b) & (uint64(1<<p.cfg.ChooserBits) - 1))
}

func (p *Predictor) btbIdx(b program.BlockID) (int, uint16) {
	h := hashPC(b)
	return int(h & (uint64(1<<p.cfg.BTBBits) - 1)), uint16(h>>32) & 0x3FF
}

// btbLookup returns the stored target for a taken direct transfer at b;
// ok is false on a BTB miss. An aliased partial tag returns a bogus
// target, as in hardware.
func (p *Predictor) btbLookup(b program.BlockID) (program.BlockID, bool) {
	i, tag := p.btbIdx(b)
	e := &p.btb[i]
	if e.valid && e.tag == tag {
		return e.target, true
	}
	return program.NoBlock, false
}

// btbInstall records a taken direct transfer's target at retirement.
func (p *Predictor) btbInstall(b, target program.BlockID) {
	i, tag := p.btbIdx(b)
	p.btb[i] = btbEntry{tag: tag, target: target, valid: true}
}

func (p *Predictor) indirectIdx(b program.BlockID, ghr uint64) (int, uint16) {
	hist := ghr & (uint64(1<<p.cfg.HistoryBits) - 1)
	h := hashPC(b) ^ (hist * 0xBF58476D1CE4E5B9)
	idx := int(h & (uint64(1<<p.cfg.IndirectBits) - 1))
	tag := uint16(h >> 48)
	return idx, tag
}

// predictDir reads the hybrid direction prediction without training.
func (p *Predictor) predictDir(b program.BlockID, ghr uint64) bool {
	g := p.gshare[p.gshareIdx(b, ghr)] >= 2
	bi := p.bimodal[p.bimodalIdx(b)] >= 2
	if p.chooser[p.chooserIdx(b)] >= 2 {
		return g
	}
	return bi
}

// predictIndirect reads the indirect-target prediction; the boolean is
// false when the table has no matching entry.
func (p *Predictor) predictIndirect(b program.BlockID, ghr uint64) (program.BlockID, bool) {
	idx, tag := p.indirectIdx(b, ghr)
	e := &p.indirect[idx]
	if e.conf > 0 && e.tag == tag {
		return e.target, true
	}
	return program.NoBlock, false
}

// PredictNextSpec predicts block b's dynamic successor along the
// speculative path and advances the speculative state (history, RAS)
// accordingly. FDIP's runahead engine calls this as it walks ahead.
// The second result is false when no prediction is possible (e.g. an
// indirect branch with a cold table), which stalls the runahead walk.
func (p *Predictor) PredictNextSpec(prog *program.Program, bid program.BlockID) (program.BlockID, bool) {
	b := prog.Block(bid)
	switch b.Term {
	case isa.TermFallthrough:
		return b.FallThrough, true
	case isa.TermJump:
		return p.btbLookup(bid)
	case isa.TermCondBranch:
		taken := p.predictDir(bid, p.specGHR)
		p.specGHR = p.specGHR<<1 | boolBit(taken)
		if taken {
			// The taken target must come from the BTB at fetch time.
			return p.btbLookup(bid)
		}
		return b.FallThrough, true
	case isa.TermCall:
		t, ok := p.btbLookup(bid)
		if !ok {
			return program.NoBlock, false
		}
		p.specRAS.push(b.FallThrough)
		return t, true
	case isa.TermIndirectCall:
		t, ok := p.predictIndirect(bid, p.specGHR)
		if !ok {
			return program.NoBlock, false
		}
		p.specGHR = p.specGHR<<2 | (uint64(t) & 3)
		p.specRAS.push(b.FallThrough)
		return t, true
	case isa.TermIndirectJump:
		t, ok := p.predictIndirect(bid, p.specGHR)
		if !ok {
			return program.NoBlock, false
		}
		p.specGHR = p.specGHR<<2 | (uint64(t) & 3)
		return t, ok
	case isa.TermRet:
		t, ok := p.specRAS.pop()
		return t, ok
	default:
		return program.NoBlock, false
	}
}

// Retire trains the predictor with block b's actual successor and advances
// the committed state. It returns what the predictor would have said for
// this block under committed state — the misprediction signal FDIP uses to
// squash its runahead walk.
func (p *Predictor) Retire(prog *program.Program, bid, actualNext program.BlockID) (predicted program.BlockID, correct bool) {
	b := prog.Block(bid)
	switch b.Term {
	case isa.TermFallthrough:
		return b.FallThrough, true
	case isa.TermJump:
		p.btbInstall(bid, b.TakenTarget)
		return b.TakenTarget, true
	case isa.TermCall:
		p.btbInstall(bid, b.TakenTarget)
		p.committedRAS.push(b.FallThrough)
		return b.TakenTarget, true

	case isa.TermCondBranch:
		taken := actualNext == b.TakenTarget
		predTaken := p.predictDir(bid, p.committedGHR)
		p.trainDir(bid, taken)
		if taken {
			p.btbInstall(bid, b.TakenTarget)
		}
		p.committedGHR = p.committedGHR<<1 | boolBit(taken)
		p.CondPredictions++
		if predTaken != taken {
			p.CondMispredicts++
		}
		if predTaken {
			predicted = b.TakenTarget
		} else {
			predicted = b.FallThrough
		}
		return predicted, predTaken == taken

	case isa.TermIndirectCall, isa.TermIndirectJump:
		pred, havePred := p.predictIndirect(bid, p.committedGHR)
		p.trainIndirect(bid, p.committedGHR, actualNext)
		p.committedGHR = p.committedGHR<<2 | (uint64(actualNext) & 3)
		if b.Term == isa.TermIndirectCall {
			p.committedRAS.push(b.FallThrough)
		}
		p.IndPredictions++
		correct = havePred && pred == actualNext
		if !correct {
			p.IndMispredicts++
		}
		return pred, correct

	case isa.TermRet:
		pred, ok := p.committedRAS.pop()
		p.RetPredictions++
		correct = ok && pred == actualNext
		if !correct {
			p.RetMispredicts++
		}
		return pred, correct

	default:
		return program.NoBlock, false
	}
}

func (p *Predictor) trainDir(bid program.BlockID, taken bool) {
	gi := p.gshareIdx(bid, p.committedGHR)
	bi := p.bimodalIdx(bid)
	gCorrect := (p.gshare[gi] >= 2) == taken
	bCorrect := (p.bimodal[bi] >= 2) == taken
	ci := p.chooserIdx(bid)
	if gCorrect != bCorrect {
		if gCorrect {
			if p.chooser[ci] < 3 {
				p.chooser[ci]++
			}
		} else if p.chooser[ci] > 0 {
			p.chooser[ci]--
		}
	}
	bump(&p.gshare[gi], taken)
	bump(&p.bimodal[bi], taken)
}

func (p *Predictor) trainIndirect(bid program.BlockID, ghr uint64, target program.BlockID) {
	idx, tag := p.indirectIdx(bid, ghr)
	e := &p.indirect[idx]
	switch {
	case e.conf == 0 || e.tag != tag:
		if e.conf > 0 {
			e.conf--
		}
		if e.conf == 0 {
			*e = indEntry{tag: tag, target: target, conf: 1}
		}
	case e.target == target:
		if e.conf < 3 {
			e.conf++
		}
	default:
		e.conf--
		if e.conf == 0 {
			e.target = target
			e.conf = 1
		}
	}
}

// ResyncSpec restores the speculative state from the committed state; the
// FDIP engine calls this when it detects its runahead walk went down a
// wrong path.
func (p *Predictor) ResyncSpec() {
	p.specGHR = p.committedGHR
	p.specRAS.copyFrom(&p.committedRAS)
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
