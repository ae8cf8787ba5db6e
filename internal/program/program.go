package program

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ripple/internal/isa"
)

// Program is the static image of an application: its functions, blocks,
// and (after Layout) their addresses.
type Program struct {
	Name   string
	Funcs  []Func
	Blocks []Block
	// Base is the address of the first byte of text, set by Layout.
	Base uint64
	// FuncAlign is the alignment applied to every function start.
	FuncAlign uint32
	// FuncOrder, when non-empty, is the text-placement order of functions
	// (a permutation of all FuncIDs). Profile-guided layout optimizers
	// (internal/layout) reorder functions this way without disturbing
	// FuncIDs or BlockIDs, so recorded traces stay valid.
	FuncOrder []FuncID

	laidOut     bool
	byAddr      []BlockID          // block IDs sorted by Addr, built by Layout
	entryByAddr map[uint64]BlockID // block entry address -> ID, for TIP decode
	// fingerprint memoizes Fingerprint until the next Layout.
	fingerprint atomic.Pointer[string]
}

// Block returns the block with the given ID. It panics on an out-of-range
// ID, which always indicates a programming error rather than bad input.
func (p *Program) Block(id BlockID) *Block {
	return &p.Blocks[id]
}

// Func returns the function with the given ID.
func (p *Program) Func(id FuncID) *Func {
	return &p.Funcs[id]
}

// NumBlocks returns the number of basic blocks.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// Layout assigns addresses: functions are placed in order starting at base,
// each aligned to FuncAlign (default 16), with their blocks packed
// back-to-back in Func.Blocks order. Layout accounts for injected
// invalidations (CodeBytes), so re-running it after injection yields the
// bloated image the paper measures in Fig. 11. Layout may be called any
// number of times.
func (p *Program) Layout(base uint64) {
	align := uint64(p.FuncAlign)
	if align == 0 {
		align = 16
	}
	p.Base = base
	addr := base
	order := p.FuncOrder
	if len(order) == 0 {
		order = make([]FuncID, len(p.Funcs))
		for i := range order {
			order[i] = FuncID(i)
		}
	}
	for _, fi := range order {
		if rem := addr % align; rem != 0 {
			addr += align - rem
		}
		for _, bid := range p.Funcs[fi].Blocks {
			b := &p.Blocks[bid]
			b.Addr = addr
			addr += uint64(b.CodeBytes())
		}
	}
	p.buildIndexes()
	p.laidOut = true
	p.fingerprint.Store(nil)
}

func (p *Program) buildIndexes() {
	p.byAddr = make([]BlockID, len(p.Blocks))
	for i := range p.Blocks {
		p.byAddr[i] = BlockID(i)
	}
	sort.Slice(p.byAddr, func(i, j int) bool {
		return p.Blocks[p.byAddr[i]].Addr < p.Blocks[p.byAddr[j]].Addr
	})
	p.entryByAddr = make(map[uint64]BlockID, len(p.Blocks))
	for i := range p.Blocks {
		p.entryByAddr[p.Blocks[i].Addr] = BlockID(i)
	}
}

// BlockAtEntry returns the block whose entry address is addr, for decoding
// TIP packets. The second result is false when no block starts there.
func (p *Program) BlockAtEntry(addr uint64) (BlockID, bool) {
	id, ok := p.entryByAddr[addr]
	return id, ok
}

// BlockContaining returns the block whose laid-out byte range contains
// addr, or NoBlock if the address falls outside the program (e.g. in
// alignment padding between functions).
func (p *Program) BlockContaining(addr uint64) BlockID {
	if len(p.byAddr) == 0 {
		return NoBlock
	}
	// First block with Addr > addr, then step back one.
	i := sort.Search(len(p.byAddr), func(i int) bool {
		return p.Blocks[p.byAddr[i]].Addr > addr
	})
	if i == 0 {
		return NoBlock
	}
	id := p.byAddr[i-1]
	b := &p.Blocks[id]
	if addr >= b.Addr+uint64(b.CodeBytes()) {
		return NoBlock
	}
	return id
}

// TotalBytes returns the total text size in bytes, including injected
// invalidations and inter-function alignment padding.
func (p *Program) TotalBytes() uint64 {
	if len(p.byAddr) == 0 {
		return 0
	}
	last := &p.Blocks[p.byAddr[len(p.byAddr)-1]]
	return last.Addr + uint64(last.CodeBytes()) - p.Base
}

// StaticInstrs returns the total static instruction count including
// injected invalidations.
func (p *Program) StaticInstrs() uint64 {
	var n uint64
	for i := range p.Blocks {
		n += uint64(p.Blocks[i].InstrCount())
	}
	return n
}

// StaticInjected returns the number of injected invalidation instructions.
func (p *Program) StaticInjected() uint64 {
	var n uint64
	for i := range p.Blocks {
		n += uint64(len(p.Blocks[i].Invalidations))
	}
	return n
}

// TranslateLineFrom maps a cache-line address of the *old* (profiled)
// layout to the corresponding line in this program's layout, by locating
// the code byte that started the old line and finding where the same byte
// landed after rewriting. Both programs must contain the same blocks (the
// rewritten program is always derived from the profiled one). The second
// result is false when the old line does not fall inside any block.
func (p *Program) TranslateLineFrom(old *Program, oldLine uint64) (uint64, bool) {
	byteAddr := oldLine << isa.LineBytesLog2
	id := old.BlockContaining(byteAddr)
	if id == NoBlock {
		return 0, false
	}
	off := byteAddr - old.Blocks[id].Addr
	// Injections are prepended conceptually at the block start; original
	// bytes keep their relative order after the injected prefix.
	newAddr := p.Blocks[id].Addr + uint64(len(p.Blocks[id].Invalidations))*isa.InvalidateBytes + off
	return isa.LineOf(newAddr), true
}

// WithInjections returns a deep copy of the program in which each listed
// block carries the given invalidation victims (replacing any existing
// injections), re-laid-out at the same base address. Victim line addresses
// in the plan must refer to *this* program's layout; they are translated
// into the rewritten layout automatically, since injection shifts code.
// Blocks marked JIT are skipped (their addresses are unstable), mirroring
// the paper's handling of HHVM JIT code.
func (p *Program) WithInjections(plan map[BlockID][]uint64) *Program {
	return p.inject(plan, false)
}

// WithInjectionsPreservingLayout is the layout-stable injection variant:
// the invalidate instructions are placed into existing alignment padding
// and NOP slots, so no code byte moves and the profiled line-to-set
// mapping stays valid. Post-link optimizers prefer exactly this placement
// when slack exists, because relocating code invalidates the very profile
// the optimization came from; the `layout` experiment quantifies how much
// of Ripple's accuracy that preserves. Code-size overhead still accrues
// through InstrCount (the hints execute), but CodeBytes is unchanged.
func (p *Program) WithInjectionsPreservingLayout(plan map[BlockID][]uint64) *Program {
	return p.inject(plan, true)
}

func (p *Program) inject(plan map[BlockID][]uint64, preserve bool) *Program {
	if !p.laidOut {
		panic("program: WithInjections before Layout")
	}
	q := p.clone()
	for bid, victims := range plan {
		b := &q.Blocks[bid]
		if b.JIT || b.Kernel || len(victims) == 0 {
			continue
		}
		b.Invalidations = make([]uint64, len(victims))
		copy(b.Invalidations, victims)
		if preserve {
			b.InvalidationsInPadding = true
		}
	}
	q.Layout(p.Base)
	if preserve {
		return q // no byte moved; victim lines stay valid
	}
	// Translate victim lines from the profiled layout into the rewritten
	// layout.
	for bid := range plan {
		b := &q.Blocks[bid]
		for i, v := range b.Invalidations {
			if nv, ok := q.TranslateLineFrom(p, v); ok {
				b.Invalidations[i] = nv
			}
		}
	}
	return q
}

// Clone deep-copies the program; the caller is expected to re-run Layout
// after mutating the copy (the layout optimizer and the injector both
// work on clones so the profiled image stays untouched).
func (p *Program) Clone() *Program { return p.clone() }

// clone deep-copies the program (indexes are rebuilt by Layout).
func (p *Program) clone() *Program {
	q := &Program{
		Name:      p.Name,
		Base:      p.Base,
		FuncAlign: p.FuncAlign,
		FuncOrder: append([]FuncID(nil), p.FuncOrder...),
		Funcs:     make([]Func, len(p.Funcs)),
		Blocks:    make([]Block, len(p.Blocks)),
	}
	copy(q.Funcs, p.Funcs)
	for i := range q.Funcs {
		q.Funcs[i].Blocks = append([]BlockID(nil), p.Funcs[i].Blocks...)
	}
	copy(q.Blocks, p.Blocks)
	for i := range q.Blocks {
		q.Blocks[i].IndirectTargets = append([]BlockID(nil), p.Blocks[i].IndirectTargets...)
		q.Blocks[i].Invalidations = append([]uint64(nil), p.Blocks[i].Invalidations...)
	}
	return q
}

// Validate checks structural invariants: every function has an entry that
// is its first block, every block belongs to exactly one function,
// terminator successor fields are consistent with the terminator kind, and
// FuncOrder (when present) is a permutation of all functions.
func (p *Program) Validate() error {
	if len(p.FuncOrder) > 0 {
		if len(p.FuncOrder) != len(p.Funcs) {
			return fmt.Errorf("program %q: FuncOrder has %d of %d functions", p.Name, len(p.FuncOrder), len(p.Funcs))
		}
		seen := make([]bool, len(p.Funcs))
		for _, fi := range p.FuncOrder {
			if fi < 0 || int(fi) >= len(p.Funcs) || seen[fi] {
				return fmt.Errorf("program %q: FuncOrder is not a permutation", p.Name)
			}
			seen[fi] = true
		}
	}
	owner := make([]FuncID, len(p.Blocks))
	for i := range owner {
		owner[i] = -1
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if len(f.Blocks) == 0 {
			return fmt.Errorf("program %q: func %q has no blocks", p.Name, f.Name)
		}
		if f.Entry != f.Blocks[0] {
			return fmt.Errorf("program %q: func %q entry %d is not its first block %d", p.Name, f.Name, f.Entry, f.Blocks[0])
		}
		for _, bid := range f.Blocks {
			if bid < 0 || int(bid) >= len(p.Blocks) {
				return fmt.Errorf("program %q: func %q references invalid block %d", p.Name, f.Name, bid)
			}
			if owner[bid] != -1 {
				return fmt.Errorf("program %q: block %d owned by funcs %d and %d", p.Name, bid, owner[bid], fi)
			}
			owner[bid] = FuncID(fi)
		}
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.ID != BlockID(i) {
			return fmt.Errorf("program %q: block at index %d has ID %d", p.Name, i, b.ID)
		}
		if owner[i] == -1 {
			return fmt.Errorf("program %q: block %d not owned by any function", p.Name, i)
		}
		if b.Func != owner[i] {
			return fmt.Errorf("program %q: block %d records func %d but is owned by %d", p.Name, i, b.Func, owner[i])
		}
		if b.Size == 0 {
			return fmt.Errorf("program %q: block %d has zero size", p.Name, i)
		}
		if !b.Term.Valid() {
			return fmt.Errorf("program %q: block %d has invalid terminator %d", p.Name, i, b.Term)
		}
		if err := p.validateSuccessors(b); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateSuccessors(b *Block) error {
	in := func(id BlockID) bool { return id >= 0 && int(id) < len(p.Blocks) }
	switch b.Term {
	case isa.TermFallthrough:
		if !in(b.FallThrough) {
			return fmt.Errorf("program %q: fallthrough block %d lacks successor", p.Name, b.ID)
		}
	case isa.TermCondBranch:
		if !in(b.TakenTarget) || !in(b.FallThrough) {
			return fmt.Errorf("program %q: cond block %d needs both successors", p.Name, b.ID)
		}
	case isa.TermJump:
		if !in(b.TakenTarget) {
			return fmt.Errorf("program %q: jump block %d lacks target", p.Name, b.ID)
		}
	case isa.TermCall:
		if !in(b.TakenTarget) || !in(b.FallThrough) {
			return fmt.Errorf("program %q: call block %d needs callee and return site", p.Name, b.ID)
		}
	case isa.TermRet:
		// no static successors
	case isa.TermIndirectJump:
		if len(b.IndirectTargets) == 0 {
			return fmt.Errorf("program %q: ijump block %d has no candidate targets", p.Name, b.ID)
		}
	case isa.TermIndirectCall:
		if len(b.IndirectTargets) == 0 || !in(b.FallThrough) {
			return fmt.Errorf("program %q: icall block %d needs candidates and a return site", p.Name, b.ID)
		}
	}
	for _, t := range b.IndirectTargets {
		if !in(t) {
			return fmt.Errorf("program %q: block %d has invalid indirect target %d", p.Name, b.ID, t)
		}
	}
	return nil
}
