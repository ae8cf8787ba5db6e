// Package core implements Ripple, the paper's primary contribution: a
// profile-guided software technique that (1) replays an ideal replacement
// policy over a profiled basic-block trace, (2) finds, for every eviction
// the ideal policy would perform, the *cue block* whose execution predicts
// that eviction with the highest conditional probability, and (3) injects
// an `invalidate` (or LRU-demote) instruction for the victim line into
// every cue block that clears the invalidation threshold, at link time.
//
// The resulting rewritten binary steers any underlying hardware
// replacement policy — LRU, Random, anything — toward near-ideal eviction
// decisions with no hardware support beyond a cldemote-like hint.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// AnalysisConfig controls the eviction analysis.
type AnalysisConfig struct {
	// L1I is the target I-cache geometry the ideal policy is replayed
	// against (binaries are optimized per target architecture, Sec. V).
	L1I cache.Config
	// MaxWindowBlocks caps how far back from each eviction the window
	// scan walks. Windows longer than this keep only their tail (the
	// blocks closest to the eviction carry the cue signal); 0 means the
	// package default.
	MaxWindowBlocks int
}

// DefaultAnalysisConfig analyzes for the Table II L1I.
func DefaultAnalysisConfig() AnalysisConfig {
	return AnalysisConfig{
		L1I:             cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		MaxWindowBlocks: 2048,
	}
}

// window is one eviction window: the victim line plus the block-trace
// index range (start, end] executed between the victim's last use and its
// ideal eviction, within one of the analyzed sources.
type window struct {
	li         int32 // victim line's index into Analysis.tables
	trace      int32 // index into Analysis.sources
	start, end int32 // block-trace indices; blocks in (start, end] form the window
}

// Analysis is the result of replaying the ideal policy over a profile:
// everything needed to emit an injection plan at any threshold.
type Analysis struct {
	Prog *program.Program
	cfg  AnalysisConfig

	// TraceBlocks is the number of profiled block executions.
	TraceBlocks int
	// Windows is the number of ideal-policy eviction windows found.
	Windows int
	// IdealMisses is the demand miss count of the ideal replay (the
	// analysis-side limit).
	IdealMisses uint64
	// Coverage aggregates the decode reports of recovering trace sources
	// (trace.Reporting): how much of the declared profile actually fed
	// the analysis after damaged regions were skipped. Nil when no source
	// reports — i.e. every profile decoded strictly or never touched a
	// packet stream.
	Coverage *SourceCoverage

	sources   []blockseq.Source
	windows   []window
	execCount []uint32
	// tables holds one block -> window-count table per victim line, in
	// the order the lines first appear as victims; lineIndex maps a
	// victim line to its table. Both are read-only once AnalyzeMulti
	// returns.
	tables    []lineTable
	lineIndex map[uint64]int32
	// cues caches the per-window cue selection (threshold-independent);
	// cueOnce makes the lazy computation safe when one Analysis is shared
	// by concurrent PlanAt callers (the parallel experiment runner).
	cues    []CueChoice
	cueOnce sync.Once
	cueErr  error
	// mark/markGen implement O(1) per-window candidate deduplication.
	mark    []uint32
	markGen uint32
}

// lineTable counts, for one victim line, the distinct eviction windows
// of that line containing each candidate block. Every window belongs to
// one line, so a window's updates all land in one small table. It is an
// open-addressing table with linear probing: a power-of-two number of
// slots, at most half of them used, doubled when an insert would pass
// that load.
type lineTable struct {
	line  uint64
	slots []lineSlot
	used  int
	shift uint8 // 32 - log2(len(slots)): a key's home slot is its hash >> shift
}

// lineSlot is one candidate block's window count. key is the block ID
// plus one, so the zero slot is empty.
type lineSlot struct {
	key, count uint32
}

// lineTableMinSlots is a new table's size. A table is made with its
// line's first window, which always holds a block, so none stays empty.
const lineTableMinSlots = 8

// home is the Fibonacci hash of key, reduced to the table's size.
func (t *lineTable) home(key uint32) uint32 { return (key * 0x9E3779B9) >> t.shift }

// count returns the number of the line's windows that contain block.
func (t *lineTable) count(block program.BlockID) uint32 {
	key := uint32(block) + 1
	mask := uint32(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].count
		case 0:
			return 0
		}
	}
}

// add counts one more window of the line that contains block.
func (t *lineTable) add(block program.BlockID) {
	key := uint32(block) + 1
	mask := uint32(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			s.count++
			return
		}
		if s.key == 0 {
			if 2*(t.used+1) > len(t.slots) {
				t.resize(2 * len(t.slots))
				t.add(block)
				return
			}
			*s = lineSlot{key: key, count: 1}
			t.used++
			return
		}
	}
}

// resize rehashes the table into n slots (a power of two).
func (t *lineTable) resize(n int) {
	old := t.slots
	t.slots = make([]lineSlot, n)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
	mask := uint32(n - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Analyze profiles the block source against the ideal replacement policy
// and computes the eviction windows and conditional-probability tables.
// The source must have been produced against prog's current layout, and
// must be replayable: the analysis makes several passes over it (and
// PlanAt's lazy cue selection makes one more), holding only O(windows)
// state instead of the materialized trace.
func Analyze(prog *program.Program, src blockseq.Source, cfg AnalysisConfig) (*Analysis, error) {
	return AnalyzeMulti(prog, []blockseq.Source{src}, cfg)
}

// AnalyzeMulti analyzes several independent profiles together: each source
// is replayed through the ideal policy separately (the I-cache state does
// not carry across), but execution counts and window membership accumulate
// into one conditional-probability table. Two uses: merging the profiles
// of multiple inputs (strengthens Fig. 13-style generalization), and
// analyzing the short fragments an LBR-style sampling profiler produces
// instead of a full PT trace (Sec. III-A mentions both trace sources).
func AnalyzeMulti(prog *program.Program, sources []blockseq.Source, cfg AnalysisConfig) (*Analysis, error) {
	if err := cfg.L1I.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxWindowBlocks <= 0 {
		cfg.MaxWindowBlocks = DefaultAnalysisConfig().MaxWindowBlocks
	}

	a := &Analysis{
		Prog:      prog,
		cfg:       cfg,
		sources:   sources,
		execCount: make([]uint32, prog.NumBlocks()),
		lineIndex: make(map[uint64]int32),
		mark:      make([]uint32, prog.NumBlocks()),
	}
	for ti, src := range sources {
		if src == nil {
			continue
		}
		n, err := a.analyzeOne(int32(ti), src)
		if err != nil {
			return nil, err
		}
		a.TraceBlocks += n
	}
	if a.TraceBlocks == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	a.Windows = len(a.windows)
	// Force the cue selection now: it replays the sources, so any replay
	// error belongs to the analysis, not to a later PlanAt call.
	a.selectCues()
	if a.cueErr != nil {
		return nil, a.cueErr
	}
	a.Coverage = gatherCoverage(sources)
	return a, nil
}

// SourceCoverage sums the damage accounting of every analyzed source
// that decoded in recovery mode: of Declared profiled blocks, Decoded
// survived and Lost fell inside Regions damaged stream regions.
type SourceCoverage struct {
	Declared uint64 `json:"declared"`
	Decoded  uint64 `json:"decoded"`
	Lost     uint64 `json:"lost,omitempty"`
	Regions  int    `json:"regions,omitempty"`
}

// Fraction returns the decoded share of the declared profile in [0, 1]
// (1 when nothing was declared).
func (c SourceCoverage) Fraction() float64 {
	if c.Declared == 0 {
		return 1
	}
	return float64(c.Decoded) / float64(c.Declared)
}

// gatherCoverage collects decode reports after the analysis passes have
// completed (a recovering source publishes its report at the end of a
// pass); nil when no source exposes one.
func gatherCoverage(sources []blockseq.Source) *SourceCoverage {
	var cov SourceCoverage
	found := false
	for _, src := range sources {
		r, ok := src.(trace.Reporting)
		if !ok {
			continue
		}
		rep, ok := r.DecodeReport()
		if !ok {
			continue
		}
		found = true
		cov.Declared += rep.Declared
		cov.Decoded += rep.Decoded
		cov.Lost += rep.BlocksLost()
		cov.Regions += len(rep.Regions)
	}
	if !found {
		return nil
	}
	return &cov
}

// analyzeOne expands one source into its demand line stream (identical to
// what the simulator fetches — Sec. III-A: no speculative accesses),
// replays Belady's MIN over it logging evictions, and accumulates window
// membership counts. It returns the source's block count.
//
// The source is streamed twice: the demand-line expansion (whose output
// the MIN oracle inherently needs in full) counts executions as it
// pulls, and a ring-buffered replay then serves every window's block
// range without the materialized trace.
func (a *Analysis) analyzeOne(traceIdx int32, src blockseq.Source) (int, error) {
	blocksHint := 0
	if n, ok := blockseq.LenHint(src); ok {
		blocksHint = n
	}
	seq := &countingSeq{Seq: src.Open(), execCount: a.execCount}
	lines, blockOf, err := frontend.DemandLinesSeq(a.Prog, seq, blocksHint)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	length := seq.n
	if length == 0 {
		return 0, nil
	}
	res, err := opt.SimulateSource(opt.LineEvents(lines), a.cfg.L1I, opt.ModeMIN, true)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	a.IdealMisses += res.DemandMisses

	first := len(a.windows)
	for _, ev := range res.EvictionLog {
		w := window{
			trace: traceIdx,
			start: blockOf[ev.LastUse],
			end:   blockOf[ev.At],
		}
		if int(w.end-w.start) > a.cfg.MaxWindowBlocks {
			w.start = w.end - int32(a.cfg.MaxWindowBlocks)
		}
		if w.end <= w.start {
			continue // eviction triggered by the very next block: no window
		}
		w.li = a.lineOf(ev.Line)
		a.windows = append(a.windows, w)
	}

	err = replayWindows(src, a.windows[first:], a.cfg.MaxWindowBlocks, func(w window, blocks []program.BlockID) {
		t := &a.tables[w.li]
		a.markGen++
		for _, bid := range blocks {
			if a.mark[bid] == a.markGen {
				continue // already counted for this window
			}
			a.mark[bid] = a.markGen
			t.add(bid)
		}
	})
	if err != nil {
		return 0, err
	}
	return length, nil
}

// lineOf returns the victim line's index into a.tables, giving a line
// seen for the first time the next index and an empty table.
func (a *Analysis) lineOf(line uint64) int32 {
	li, ok := a.lineIndex[line]
	if !ok {
		li = int32(len(a.tables))
		a.lineIndex[line] = li
		t := lineTable{line: line}
		t.resize(lineTableMinSlots)
		a.tables = append(a.tables, t)
	}
	return li
}

// countingSeq counts each block's executions as a pass is pulled through
// it.
type countingSeq struct {
	blockseq.Seq
	execCount []uint32
	n         int
}

func (s *countingSeq) Next() (program.BlockID, bool) {
	bid, ok := s.Seq.Next()
	if ok {
		s.execCount[bid]++
		s.n++
	}
	return bid, ok
}

// replayWindows streams src once and visits each window with its blocks,
// (start, end] in trace order. It relies on two invariants: windows are
// ordered by non-decreasing end (the eviction log is in eviction-time
// order and blockOf is monotone), and every window spans at most maxWin
// blocks (Analyze clamps longer ones) — so a ring of the last maxWin
// blocks always covers the visited window. The ring holds each block
// twice, maxWin slots apart, so every window is one contiguous slice of
// it.
func replayWindows(src blockseq.Source, windows []window, maxWin int, visit func(w window, blocks []program.BlockID)) error {
	if len(windows) == 0 {
		return nil
	}
	ring := make([]program.BlockID, 2*maxWin)
	seq := src.Open()
	pos := int32(-1)   // index of the last block read
	slot := maxWin - 1 // pos mod maxWin
	for _, w := range windows {
		for pos < w.end {
			bid, ok := seq.Next()
			if !ok {
				if err := seq.Err(); err != nil {
					return fmt.Errorf("core: %w", err)
				}
				return fmt.Errorf("core: source replay ended at block %d but window extends to %d (source not replayable?)", pos, w.end)
			}
			pos++
			if slot++; slot == maxWin {
				slot = 0
			}
			ring[slot], ring[slot+maxWin] = bid, bid
		}
		lo := int(w.start+1) % maxWin
		visit(w, ring[lo:lo+int(w.end-w.start)])
	}
	return nil
}

// Probability returns P(evict line | execute block): the fraction of the
// block's executions that fall inside one of the line's eviction windows.
func (a *Analysis) Probability(line uint64, block program.BlockID) float64 {
	li, ok := a.lineIndex[line]
	if !ok {
		return 0
	}
	return a.probability(a.tables[li].count(block), block)
}

// probability is Probability given the count n of the line's windows
// that contain block.
func (a *Analysis) probability(n uint32, block program.BlockID) float64 {
	if n == 0 || a.execCount[block] == 0 {
		return 0
	}
	return float64(n) / float64(a.execCount[block])
}

// CueChoice reports the selected cue block of one eviction window.
type CueChoice struct {
	Line        uint64
	Block       program.BlockID
	li          int32 // Line's index into Analysis.tables
	Probability float64
}

// selectCues picks, for every eviction window, the candidate block with
// the highest conditional probability (ties broken toward the block
// closest to the eviction, then lowest ID — "arbitrarily" per the paper,
// but deterministic here). The selection does not depend on the
// invalidation threshold, so it is computed once and cached; PlanAt then
// filters it per threshold. AnalyzeMulti forces the computation before
// returning (the replay can fail on a misbehaving source, and this is
// where that error surfaces), so by the time concurrent PlanAt callers
// share the Analysis the Once is already settled.
func (a *Analysis) selectCues() []CueChoice {
	a.cueOnce.Do(func() { a.cueErr = a.computeCues() })
	return a.cues
}

// computeCues scans each window's blocks closest-to-eviction first via
// the same ring-buffered source replay the accumulation pass uses.
func (a *Analysis) computeCues() error {
	choices := make([]CueChoice, 0, len(a.windows))
	// a.windows groups each source's windows contiguously, in analysis
	// order: replay one source per group.
	for lo := 0; lo < len(a.windows); {
		hi := lo
		src := a.windows[lo].trace
		for hi < len(a.windows) && a.windows[hi].trace == src {
			hi++
		}
		err := replayWindows(a.sources[src], a.windows[lo:hi], a.cfg.MaxWindowBlocks, func(w window, blocks []program.BlockID) {
			t := &a.tables[w.li]
			a.markGen++
			best := CueChoice{Line: t.line, Block: program.NoBlock, li: w.li}
			for i := len(blocks) - 1; i >= 0; i-- {
				bid := blocks[i]
				if a.mark[bid] == a.markGen {
					continue
				}
				a.mark[bid] = a.markGen
				if p := a.probability(t.count(bid), bid); p > best.Probability {
					best.Block = bid
					best.Probability = p
				}
			}
			if best.Block != program.NoBlock {
				choices = append(choices, best)
			}
		})
		if err != nil {
			return err
		}
		lo = hi
	}
	a.cues = choices
	return nil
}

// Candidates returns the candidate cue blocks of the given victim line
// with their conditional probabilities, sorted by descending probability —
// the data behind the Fig. 5 worked example.
func (a *Analysis) Candidates(line uint64) []CueChoice {
	li, ok := a.lineIndex[line]
	if !ok {
		return nil
	}
	t := &a.tables[li]
	out := make([]CueChoice, 0, t.used)
	for _, s := range t.slots {
		if s.key == 0 {
			continue
		}
		block := program.BlockID(s.key - 1)
		out = append(out, CueChoice{
			Line:        line,
			Block:       block,
			li:          li,
			Probability: a.probability(s.count, block),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// MostEvictedLine returns the victim line with the most eviction windows
// and that count — the natural subject for a Fig. 5-style worked example.
func (a *Analysis) MostEvictedLine() (uint64, int) {
	counts := make([]int, len(a.tables))
	for _, w := range a.windows {
		counts[w.li]++
	}
	var best uint64
	bestN := 0
	for li, n := range counts {
		line := a.tables[li].line
		if n > bestN || (n == bestN && line < best) {
			best, bestN = line, n
		}
	}
	return best, bestN
}
