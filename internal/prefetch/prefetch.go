// Package prefetch implements the instruction prefetchers the paper
// evaluates Ripple under: no prefetching, a next-line prefetcher (NLP),
// and fetch-directed instruction prefetching (FDIP) — the state-of-the-art
// mechanism shipped in contemporary cores, modeled as a branch-predictor-
// driven runahead walk over a fetch target queue.
//
// Prefetchers see the committed block stream and append the cache lines
// they prefetch to a buffer the caller owns; the frontend simulator then
// issues each line, installing a missing one into the L1I marked as a
// prefetch. Wrong-path prefetches (issued beyond a misprediction before
// the squash) are deliberately left in the cache — they are precisely
// the pollution the paper's ideal replacement policy cleans up early
// (Sec. II-C, Observation #1).
//
// A batch of runs over one trace needs FDIP's predictions only once:
// Batch records them as a Tape and gives every FDIP run a replay of it.
package prefetch

import (
	"fmt"

	"ripple/internal/bpred"
	"ripple/internal/program"
)

// Prefetcher is the frontend's view of an instruction prefetch engine.
type Prefetcher interface {
	// Name identifies the prefetcher in reports ("none", "nlp", "fdip").
	Name() string
	// OnBlockRetire observes one committed block and its dynamic successor
	// and returns dst with the lines it prefetches appended, in issue
	// order. The caller issues them after the call, which no prefetcher
	// can tell apart from issuing each at once: a prefetcher's state never
	// depends on the cache.
	OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64
}

// catalog lists the prefetcher configurations in Names' order: the
// paper's three evaluation baselines plus the temporal record/replay
// extension.
var catalog = []struct {
	name  string
	build func(*program.Program) Prefetcher
}{
	{"none", func(*program.Program) Prefetcher { return None{} }},
	{"nlp", func(prog *program.Program) Prefetcher { return NewNLP(prog, 1) }},
	{"fdip", func(prog *program.Program) Prefetcher { return NewFDIP(prog, bpred.DefaultConfig(), 32) }},
	{"tifs", func(prog *program.Program) Prefetcher { return NewTIFS(prog, 1<<15, 6) }},
}

// Names lists the available prefetcher configurations.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// New builds a prefetcher by name for the given program.
func New(name string, prog *program.Program) (Prefetcher, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build(prog), nil
		}
	}
	return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, Names())
}

// None performs no prefetching (the paper's baseline configuration).
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnBlockRetire implements Prefetcher.
func (None) OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64 { return dst }

// NLP is the classic sequential next-line prefetcher: after fetching a
// block it prefetches the next `degree` lines following the block's last
// line, exploiting the spatial layout of straight-line code.
type NLP struct {
	prog   *program.Program
	degree int
}

// NewNLP builds a next-line prefetcher with the given degree.
func NewNLP(prog *program.Program, degree int) *NLP {
	return &NLP{prog: prog, degree: degree}
}

// Name implements Prefetcher.
func (p *NLP) Name() string { return "nlp" }

// OnBlockRetire implements Prefetcher.
func (p *NLP) OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64 {
	_, end := p.prog.Block(bid).LineRange()
	for d := 0; d < p.degree; d++ {
		dst = append(dst, end+uint64(d))
	}
	return dst
}

// FDIP is fetch-directed instruction prefetching: a runahead engine walks
// the predicted control-flow path ahead of retirement, enqueues predicted
// blocks into a fetch target queue (FTQ), and prefetches their lines. When
// retirement detects a misprediction the FTQ is squashed and the walk
// restarts from the correct path — but the wrong-path prefetches already
// issued stay resident, polluting the I-cache.
type FDIP struct {
	prog  *program.Program
	pred  *bpred.Predictor
	depth int
	// stepsPerRetire bounds how many FTQ entries the runahead engine can
	// produce per retired block (fetch/prefetch bandwidth). After a
	// squash the engine restarts at zero lead, so the first blocks down
	// the corrected path miss or stall — the hard-to-prefetch lines of
	// Sec. II-C.
	stepsPerRetire int

	ftq     []program.BlockID
	runPC   program.BlockID
	started bool

	// Stats
	Issued   uint64
	Squashes uint64
}

// NewFDIP builds an FDIP engine with its own branch predictor and an FTQ
// of `depth` blocks.
func NewFDIP(prog *program.Program, cfg bpred.Config, depth int) *FDIP {
	return &FDIP{
		prog:           prog,
		pred:           bpred.New(cfg),
		depth:          depth,
		stepsPerRetire: 2,
		ftq:            make([]program.BlockID, 0, max(depth, 0)),
		runPC:          program.NoBlock,
	}
}

// Name implements Prefetcher.
func (p *FDIP) Name() string { return "fdip" }

// Mispredicts returns the branch predictor's control-flow mispredictions
// so far; a live engine never fails.
func (p *FDIP) Mispredicts() (uint64, error) {
	pr := p.pred
	return pr.CondMispredicts + pr.IndMispredicts + pr.RetMispredicts, nil
}

// OnBlockRetire implements Prefetcher.
func (p *FDIP) OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64 {
	_, correct := p.pred.Retire(p.prog, bid, next)

	onPath := p.started && correct && len(p.ftq) > 0 && p.ftq[0] == next
	if onPath {
		// Pop by shifting down, so the queue keeps its depth-sized
		// backing array instead of sliding off it.
		p.ftq = p.ftq[:copy(p.ftq, p.ftq[1:])]
	} else {
		// Squash: wrong path (or cold start) — restart the walk from the
		// actual successor with committed predictor state.
		if p.started {
			p.Squashes++
		}
		p.started = true
		p.ftq = p.ftq[:0]
		p.pred.ResyncSpec()
		p.runPC = next
	}
	return p.refill(dst)
}

// refill extends the FTQ up to depth and returns dst with each newly
// predicted block's lines appended.
func (p *FDIP) refill(dst []uint64) []uint64 {
	for steps := 0; steps < p.stepsPerRetire && len(p.ftq) < p.depth && p.runPC != program.NoBlock; steps++ {
		nb, ok := p.pred.PredictNextSpec(p.prog, p.runPC)
		if !ok {
			// Unpredictable target (cold indirect): the walk stops
			// here, and the next refill retries from runPC; these are
			// the paper's hard-to-prefetch lines.
			return dst
		}
		p.ftq = append(p.ftq, nb)
		first, end := p.prog.Block(nb).LineRange()
		for l := first; l < end; l++ {
			dst = append(dst, l)
		}
		p.Issued += end - first
		p.runPC = nb
	}
	return dst
}
