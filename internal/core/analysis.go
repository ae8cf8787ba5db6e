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
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
	li         int32 // victim line's index into Analysis.lines
	trace      int32 // index into Analysis.blocks
	start, end int32 // block-trace indices; blocks in (start, end] form the window
}

// Analysis is the result of replaying the ideal policy over a profile:
// everything needed to emit an injection plan at any threshold. It is
// read-only once AnalyzeMulti returns, so concurrent callers may share it.
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

	// blocks holds each source's block IDs in trace order; the windows
	// index into it.
	blocks    [][]program.BlockID
	windows   []window
	execCount []uint32
	// lines lists the victim lines in the order they first appear as
	// victims; lineIndex maps a victim line to its index. byLine holds
	// the window indices grouped by victim line, each line's in window
	// order: line li's are byLine[lineStart[li]:lineStart[li+1]].
	lines     []uint64
	lineIndex map[uint64]int32
	byLine    []int32
	lineStart []int32
	// pairs holds every distinct (victim line, cue block) pair some window
	// picked, ranked by probability (descending), ties by (line, block).
	// A pair's probability does not depend on the window, so the plan at
	// any threshold is a prefix of this one list.
	pairs []cuePair
}

// cuePair is one (victim line, cue block) pair: the block that windows
// of the line picked as their cue, its conditional probability, and how
// many of the line's windows picked it.
type cuePair struct {
	li          int32 // victim line's index into Analysis.lines
	block       program.BlockID
	windows     int32
	probability float64
}

// Analyze profiles the block source against the ideal replacement policy
// and computes the eviction windows and their cue blocks. The source must
// have been produced against prog's current layout. The analysis reads it
// once and keeps its block IDs (4 B per block). Its cue pass runs on up to
// GOMAXPROCS goroutines; the result does not depend on how many.
func Analyze(prog *program.Program, src blockseq.Source, cfg AnalysisConfig) (*Analysis, error) {
	return AnalyzeMulti(prog, []blockseq.Source{src}, cfg)
}

// AnalyzeMulti analyzes several independent profiles together: each source
// is replayed through the ideal policy separately (the I-cache state does
// not carry across), but execution counts and window membership accumulate
// into one conditional probability per (line, block). Two uses: merging
// the profiles of multiple inputs (strengthens Fig. 13-style
// generalization), and analyzing the short fragments an LBR-style sampling
// profiler produces instead of a full PT trace (Sec. III-A mentions both
// trace sources).
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
		blocks:    make([][]program.BlockID, len(sources)),
		execCount: make([]uint32, prog.NumBlocks()),
		lineIndex: make(map[uint64]int32),
	}
	for ti, src := range sources {
		if src == nil {
			continue
		}
		if err := a.analyzeOne(int32(ti), src); err != nil {
			return nil, err
		}
		a.TraceBlocks += len(a.blocks[ti])
	}
	if a.TraceBlocks == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	a.Windows = len(a.windows)
	a.groupByLine()
	a.selectCues()
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

// gatherCoverage collects decode reports after the analysis pass has
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
// keeping the source's block IDs and execution counts as it pulls them,
// then replays Belady's MIN over the lines and logs each eviction's
// window.
func (a *Analysis) analyzeOne(traceIdx int32, src blockseq.Source) error {
	hint := blockseq.CapHint(src, 0)
	seq := &countingSeq{Seq: src.Open(), execCount: a.execCount, blocks: make([]program.BlockID, 0, hint)}
	lines, blockOf, err := frontend.DemandLinesSeq(a.Prog, seq, hint)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	a.blocks[traceIdx] = seq.blocks
	if len(seq.blocks) == 0 {
		return nil
	}
	res, err := opt.SimulateSource(opt.LineEvents(lines), a.cfg.L1I, opt.ModeMIN, true)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	a.IdealMisses += res.DemandMisses

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
	return nil
}

// lineOf returns the victim line's index into a.lines, giving a line seen
// for the first time the next index.
func (a *Analysis) lineOf(line uint64) int32 {
	li, ok := a.lineIndex[line]
	if !ok {
		li = int32(len(a.lines))
		a.lineIndex[line] = li
		a.lines = append(a.lines, line)
	}
	return li
}

// countingSeq keeps the block IDs of a pass, and counts each block's
// executions, as the pass is pulled through it.
type countingSeq struct {
	blockseq.Seq
	execCount []uint32
	blocks    []program.BlockID
}

func (s *countingSeq) Next() (program.BlockID, bool) {
	bid, ok := s.Seq.Next()
	if ok {
		s.execCount[bid]++
		s.blocks = append(s.blocks, bid)
	}
	return bid, ok
}

// windowBlocks returns the blocks of window wi, in trace order.
func (a *Analysis) windowBlocks(wi int32) []program.BlockID {
	w := a.windows[wi]
	return a.blocks[w.trace][w.start+1 : w.end+1]
}

// groupByLine buckets the window indices by victim line with a counting
// sort, so each line's windows stay in window order.
func (a *Analysis) groupByLine() {
	a.lineStart = make([]int32, len(a.lines)+1)
	for _, w := range a.windows {
		a.lineStart[w.li+1]++
	}
	for li := range a.lines {
		a.lineStart[li+1] += a.lineStart[li]
	}
	a.byLine = make([]int32, len(a.windows))
	next := slices.Clone(a.lineStart)
	for wi, w := range a.windows {
		a.byLine[next[w.li]] = int32(wi)
		next[w.li]++
	}
}

// lineWindows returns the indices of line li's eviction windows, in
// window order.
func (a *Analysis) lineWindows(li int32) []int32 {
	return a.byLine[a.lineStart[li]:a.lineStart[li+1]]
}

// Probability returns P(evict line | execute block): the fraction of the
// block's executions that fall inside one of the line's eviction windows.
func (a *Analysis) Probability(line uint64, block program.BlockID) float64 {
	li, ok := a.lineIndex[line]
	if !ok {
		return 0
	}
	var n uint32
	for _, wi := range a.lineWindows(li) {
		if slices.Contains(a.windowBlocks(wi), block) {
			n++
		}
	}
	return a.probability(n, block)
}

// probability is Probability given the count n of the line's windows
// that contain block.
func (a *Analysis) probability(n uint32, block program.BlockID) float64 {
	if n == 0 || a.execCount[block] == 0 {
		return 0
	}
	return float64(n) / float64(a.execCount[block])
}

// CueChoice is a candidate cue block of a victim line with its
// conditional probability.
type CueChoice struct {
	Line        uint64
	Block       program.BlockID
	Probability float64
}

// selectCues picks every window's cue and ranks the distinct (line, cue)
// pairs the windows picked. A window's cue depends only on its own line's
// counts (Sec. III-B), so the victim lines are dealt round-robin to one
// shard per P (at most one per line), and the shards share nothing but
// the read-only windows. Line li's pairs are at most its windows, so a
// shard writes them into out[lineStart[li]:] and their count into
// npairs[li]; the lines' pairs are then packed and ranked. Nothing here
// depends on the shard count, and one shard is the serial pass.
func (a *Analysis) selectCues() {
	out := make([]cuePair, len(a.windows))
	npairs := make([]int32, len(a.lines))
	shards := min(runtime.GOMAXPROCS(0), len(a.lines))
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.cueShard(s, shards, out, npairs)
		}()
	}
	wg.Wait()

	n := 0
	for li, k := range npairs {
		from := a.lineStart[li]
		n += copy(out[n:], out[from:from+k])
	}
	a.pairs = out[:n]
	slices.SortFunc(a.pairs, func(x, y cuePair) int {
		return cmp.Or(
			cmp.Compare(y.probability, x.probability),
			cmp.Compare(a.lines[x.li], a.lines[y.li]),
			cmp.Compare(x.block, y.block))
	})
}

// tally is one program block's entry in a shard's table for the current
// line.
type tally struct {
	// count is the number of the line's windows that contain the block
	// while they are counted, then the number whose cue it is.
	count uint32
	// lastWin is 1 + the index of the last window that counted the block,
	// so a block repeated within one window counts once; window indices
	// are unique across lines, so only a table taken over from another
	// analysis needs clearing.
	lastWin int32
	// probability is the block's conditional probability for the line.
	probability float64
}

// tallies is the free list of the cue shards' block tables: a shard
// borrows one and returns it, so a process that analyzes many short
// windows (a watcher's epochs) does not allocate 16 B per program block
// per shard for each. It holds at most as many tables as shards ever ran
// at once. It is not a sync.Pool, which a garbage collection between two
// epochs may empty.
var tallies struct {
	sync.Mutex
	free [][]tally
}

// borrowTallies returns a cleared table of n entries.
func borrowTallies(n int) []tally {
	tallies.Lock()
	var tab []tally
	if k := len(tallies.free); k > 0 {
		tab, tallies.free = tallies.free[k-1], tallies.free[:k-1]
	}
	tallies.Unlock()
	if cap(tab) < n {
		return make([]tally, n)
	}
	tab = tab[:n]
	clear(tab) // lastWin holds another analysis's window indices
	return tab
}

// returnTallies puts a borrowed table back on the free list.
func returnTallies(tab []tally) {
	tallies.Lock()
	tallies.free = append(tallies.free, tab)
	tallies.Unlock()
}

// cueShard picks the cues of lines shard, shard+shards, ... over one
// block-indexed table: the line's windows count their distinct blocks
// into it, each touched block's probability is computed once, each
// window takes the block with the highest probability, and the line's
// distinct cues become its pairs. Ties go to the block closest to the
// eviction ("arbitrarily" per the paper, but deterministic here).
func (a *Analysis) cueShard(shard, shards int, out []cuePair, npairs []int32) {
	tab := borrowTallies(a.Prog.NumBlocks())
	defer returnTallies(tab)
	var touched, cues []program.BlockID
	for li := int32(shard); int(li) < len(a.lines); li += int32(shards) {
		wins := a.lineWindows(li)
		for _, wi := range wins {
			for _, bid := range a.windowBlocks(wi) {
				t := &tab[bid]
				if t.lastWin == wi+1 {
					continue
				}
				t.lastWin = wi + 1
				if t.count == 0 {
					touched = append(touched, bid)
				}
				t.count++
			}
		}
		for _, bid := range touched {
			t := &tab[bid]
			t.probability = a.probability(t.count, bid)
			t.count = 0
		}
		for _, wi := range wins {
			// Closest to the eviction first: a later block displaces the
			// choice only with a strictly higher probability.
			blocks := a.windowBlocks(wi)
			best, bestP := program.NoBlock, 0.0
			for i := len(blocks) - 1; i >= 0; i-- {
				if p := tab[blocks[i]].probability; p > bestP {
					best, bestP = blocks[i], p
				}
			}
			// Every block of a window ran inside it, so its probability
			// is positive and best is one of the window's blocks.
			if tab[best].count == 0 {
				cues = append(cues, best)
			}
			tab[best].count++
		}
		at := a.lineStart[li]
		for i, bid := range cues {
			t := &tab[bid]
			out[at+int32(i)] = cuePair{li: li, block: bid, windows: int32(t.count), probability: t.probability}
			t.count = 0
		}
		npairs[li] = int32(len(cues))
		touched, cues = touched[:0], cues[:0]
	}
}

// Candidates returns the candidate cue blocks of the given victim line
// with their conditional probabilities, sorted by descending probability —
// the data behind the Fig. 5 worked example.
func (a *Analysis) Candidates(line uint64) []CueChoice {
	li, ok := a.lineIndex[line]
	if !ok {
		return nil
	}
	type tally struct {
		n       uint32
		lastWin int32 // 1 + the last window that counted the block
	}
	tallies := make(map[program.BlockID]tally)
	for _, wi := range a.lineWindows(li) {
		for _, bid := range a.windowBlocks(wi) {
			if t := tallies[bid]; t.lastWin != wi+1 {
				tallies[bid] = tally{n: t.n + 1, lastWin: wi + 1}
			}
		}
	}
	out := make([]CueChoice, 0, len(tallies))
	for block, t := range tallies {
		out = append(out, CueChoice{Line: line, Block: block, Probability: a.probability(t.n, block)})
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
	var best uint64
	bestN := 0
	for li, line := range a.lines {
		n := len(a.lineWindows(int32(li)))
		if n > bestN || (n == bestN && line < best) {
			best, bestN = line, n
		}
	}
	return best, bestN
}
