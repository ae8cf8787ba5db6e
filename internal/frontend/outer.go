package frontend

import (
	"fmt"
	"math"
	"sync"

	"ripple/internal/cache"
	"ripple/internal/isa"
	"ripple/internal/program"
	"ripple/internal/replacement"
)

// outer is a reusable L2/L3 pair, prewarmed with one block layout's text,
// together with the per-line tables a run keeps beside the caches.
// Building the pair (~4.3 MB of tags and LRU stamps at Table II's sizes)
// and installing the text cost more than a short simulation, so runs
// borrow pairs from a free list instead. Both caches are marked
// right after the prewarm, so the journal holds only the sets a run
// changes, and release rolls them back: the next run starts from exactly
// the state a fresh build would give it.
type outer struct {
	l2, l3 *cache.Cache

	// The key: the geometry, and the layout (each block's address and
	// encoded size) whose text was installed.
	l2cfg, l3cfg cache.Config
	layout       []blockSpan

	// first is the current program's first text line; seen, ready and
	// ways are indexed by line minus first. seen marks lines demand-missed
	// at least once (compulsory misses); ready holds the cycle an in-flight
	// prefetch's data arrives, -Inf when none is in flight (-Inf is never
	// later than the clock, exactly like an absent entry); ways is the
	// run's L1I line→way index (cache.Cache.Index clears and keeps it).
	first uint64
	seen  []bool
	ready []float64
	ways  []uint8
	// hints is the per-block hint table of Options.Injections.
	hints [][]uint64
}

// blockSpan is one block's place in the layout.
type blockSpan struct {
	addr  uint64
	bytes uint32
}

// outers is the free list. A pair is built only when no idle pair
// exists, so there are never more pairs than runs were ever in flight at
// once; an idle pair that matches no run is rebuilt for the next run
// that finds no match.
var outers struct {
	sync.Mutex
	free []*outer
}

// acquire returns a pair for the geometry and program, prewarmed with
// the program's text, with its line tables cleared for prog.
func acquire(p Params, prog *program.Program) *outer {
	outers.Lock()
	var o *outer
	for i := len(outers.free) - 1; i >= 0; i-- {
		if outers.free[i].matches(p, prog) {
			o = outers.free[i]
			outers.free = append(outers.free[:i], outers.free[i+1:]...)
			break
		}
	}
	if o == nil && len(outers.free) > 0 {
		o = outers.free[0]
		outers.free = outers.free[1:]
	}
	outers.Unlock()
	if o == nil {
		o = &outer{}
	}
	if !o.matches(p, prog) {
		o.build(p, prog)
	}
	o.clearLines(prog)
	return o
}

// release rolls the pair back to its mark and returns it to the free
// list. Run defers it, so an error or a panic returns the pair too.
func (o *outer) release() {
	o.l2.Rollback()
	o.l3.Rollback()
	outers.Lock()
	outers.free = append(outers.free, o)
	outers.Unlock()
}

func (o *outer) matches(p Params, prog *program.Program) bool {
	if o.l2 == nil || o.l2cfg != p.L2 || o.l3cfg != p.L3 || len(o.layout) != len(prog.Blocks) {
		return false
	}
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		if o.layout[i] != (blockSpan{b.Addr, b.CodeBytes()}) {
			return false
		}
	}
	return true
}

// build makes fresh caches for the key, installs the whole text image
// into both, and marks them. Run has validated the geometry.
func (o *outer) build(p Params, prog *program.Program) {
	var err error
	if o.l2, err = cache.New(p.L2, replacement.NewLRU()); err != nil {
		panic(err)
	}
	if o.l3, err = cache.New(p.L3, replacement.NewLRU()); err != nil {
		panic(err)
	}
	o.l2cfg, o.l3cfg = p.L2, p.L3
	o.layout = o.layout[:0]
	var buf [16]uint64
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		o.layout = append(o.layout, blockSpan{b.Addr, b.CodeBytes()})
		for _, l := range b.Lines(buf[:0]) {
			ai := cache.AccessInfo{Line: l, Sig: l}
			o.l2.Access(ai)
			o.l3.Access(ai)
		}
	}
	o.l2.Mark()
	o.l3.Mark()
}

// clearLines sizes and clears the line tables for prog's text.
func (o *outer) clearLines(prog *program.Program) {
	first, n := textLines(prog)
	o.first = first
	o.seen = resize(o.seen, n)
	o.ready = resize(o.ready, n)
	o.ways = resize(o.ways, n)
	clear(o.seen)
	for i := range o.ready {
		o.ready[i] = math.Inf(-1)
	}
}

// textLines returns the first line of prog's text and how many lines it
// spans.
func textLines(prog *program.Program) (first uint64, n int) {
	lo, hi := ^uint64(0), uint64(0)
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		if b.CodeBytes() == 0 {
			continue
		}
		lo = min(lo, isa.LineOf(b.Addr))
		hi = max(hi, isa.LineOf(b.Addr+uint64(b.CodeBytes())-1))
	}
	if lo > hi {
		return 0, 0
	}
	return lo, int(hi - lo + 1)
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// takeReady removes line l's in-flight prefetch and returns the cycle
// its data arrives, -Inf when none was in flight.
func (o *outer) takeReady(l uint64) float64 {
	i := l - o.first
	if i >= uint64(len(o.ready)) {
		return math.Inf(-1)
	}
	r := o.ready[i]
	o.ready[i] = math.Inf(-1)
	return r
}

// setReady records an in-flight prefetch of l arriving at cycle. A
// prefetcher may issue lines outside the text; they are not recorded,
// because only a demand hit reads the arrival cycle, and demand accesses
// touch text lines only.
func (o *outer) setReady(l uint64, cycle float64) {
	if i := l - o.first; i < uint64(len(o.ready)) {
		o.ready[i] = cycle
	}
}

// hintTable fills the per-block hint table from a plan the way
// program.WithInjectionsPreservingLayout places it: JIT and kernel cue
// blocks and empty victim lists are skipped. A cue block outside the
// program, or one whose own injections occupy code bytes (replacing them
// would move code), is an error. A nil plan gives a nil table.
func (o *outer) hintTable(prog *program.Program, inj map[program.BlockID][]uint64) ([][]uint64, error) {
	if inj == nil {
		return nil, nil
	}
	n := len(prog.Blocks)
	found, bad, why := false, program.BlockID(0), ""
	for bid, victims := range inj {
		var reason string
		switch {
		case bid < 0 || int(bid) >= n:
			reason = fmt.Sprintf("is outside program %q (%d blocks)", prog.Name, n)
		case hinted(&prog.Blocks[bid], victims) && len(prog.Blocks[bid].Invalidations) > 0 &&
			!prog.Blocks[bid].InvalidationsInPadding:
			reason = "already carries injections that occupy code bytes"
		default:
			continue
		}
		if !found || bid < bad {
			found, bad, why = true, bid, reason
		}
	}
	if found {
		return nil, fmt.Errorf("cue block %d %s", bad, why)
	}
	o.hints = resize(o.hints, n)
	clear(o.hints)
	for bid, victims := range inj {
		if hinted(&prog.Blocks[bid], victims) {
			o.hints[bid] = victims
		}
	}
	return o.hints, nil
}

// hinted reports whether a plan's victims for b are placed at all.
func hinted(b *program.Block, victims []uint64) bool {
	return !b.JIT && !b.Kernel && len(victims) > 0
}
