// Package program models the static shape of an application binary at the
// granularity Ripple operates on: functions made of basic blocks, each with
// a byte size, an instruction count, a terminator, and static successors.
//
// The package owns the address layout (assigning every block its place in
// the text segment), the lookup structures needed by the trace decoder and
// the simulators, and — crucially for Ripple — link-time rewriting: given an
// injection plan, it produces a new Program in which cue blocks carry
// `invalidate` instructions, all downstream addresses are shifted, and
// victim line addresses are translated into the rewritten layout.
package program

import (
	"fmt"

	"ripple/internal/isa"
)

// BlockID identifies a basic block within a Program. IDs are dense indexes
// into Program.Blocks, so dynamic traces can be stored as []BlockID.
type BlockID int32

// NoBlock is the sentinel for "no successor" (e.g. the fall-through of an
// unconditional jump).
const NoBlock BlockID = -1

// FuncID identifies a function within a Program.
type FuncID int32

// Block is one basic block: a straight-line run of instructions ended by a
// terminator. Size and Instrs describe the original code only; injected
// invalidations are accounted separately so static/dynamic overhead can be
// measured (Figs. 11 and 12 of the paper).
type Block struct {
	ID     BlockID
	Func   FuncID
	Addr   uint64 // assigned by Program.Layout
	Size   uint32 // original code bytes (excludes injected invalidations)
	Instrs uint32 // original instruction count (excludes injections)
	Term   isa.TermKind

	// TakenTarget is the static target of a direct terminator: the taken
	// side of a conditional branch, the target of a jump, or the callee
	// entry of a direct call. NoBlock for indirect terminators and returns.
	TakenTarget BlockID
	// FallThrough is the next block when the terminator falls through: the
	// not-taken side of a conditional branch, the only successor of a
	// fall-through block, or the return site of a call (the block control
	// reaches after the callee returns). NoBlock where meaningless (after a
	// ret or unconditional jump).
	FallThrough BlockID
	// IndirectTargets lists the candidate dynamic targets of an indirect
	// jump/call, used by the workload walker to synthesize executions and
	// by nothing else (real decode uses trace TIP packets).
	IndirectTargets []BlockID

	// JIT marks just-in-time-compiled code whose addresses are reused over
	// the run; Ripple refuses to inject into JIT blocks (Sec. IV, Fig. 9).
	JIT bool
	// Kernel marks kernel-mode code: traced by PT (Sec. IV captures both
	// modes) but not part of the application binary, so Ripple cannot
	// inject into it. The paper reports ~15% of HHVM apps' misses come
	// from kernel code.
	Kernel bool

	// Invalidations holds the victim cache-line addresses of `invalidate`
	// instructions injected into this block (empty in an unmodified
	// program). They execute when the block executes, before its
	// terminator.
	Invalidations []uint64
	// InvalidationsInPadding marks injections placed into pre-existing
	// alignment padding / NOP slots: they execute but occupy no new bytes,
	// so the block's layout (and every address after it) is unchanged.
	InvalidationsInPadding bool
}

// CodeBytes returns the block's total encoded size including injected
// invalidation instructions (padding-placed injections occupy no new
// bytes).
func (b *Block) CodeBytes() uint32 {
	if b.InvalidationsInPadding {
		return b.Size
	}
	return b.Size + uint32(len(b.Invalidations))*isa.InvalidateBytes
}

// InstrCount returns the block's dynamic instruction contribution per
// execution, including injected invalidations.
func (b *Block) InstrCount() uint32 {
	return b.Instrs + uint32(len(b.Invalidations))
}

// FirstLine returns the cache line containing the block's first byte.
func (b *Block) FirstLine() uint64 { return isa.LineOf(b.Addr) }

// Lines appends the cache-line addresses the block occupies (based on its
// laid-out address and full encoded size) to dst and returns the extended
// slice. Blocks commonly span one or two lines.
func (b *Block) Lines(dst []uint64) []uint64 {
	first, end := b.LineRange()
	for l := first; l < end; l++ {
		dst = append(dst, l)
	}
	return dst
}

// LineRange returns the half-open range [first, end) of the cache lines
// Lines appends, for loops that need no slice.
func (b *Block) LineRange() (first, end uint64) {
	first = isa.LineOf(b.Addr)
	return first, first + uint64(isa.LinesSpanned(b.Addr, b.CodeBytes()))
}

// String renders a compact description for diagnostics.
func (b *Block) String() string {
	return fmt.Sprintf("B%d@%#x[%dB,%s]", b.ID, b.Addr, b.CodeBytes(), b.Term)
}

// Func is a contiguous group of basic blocks laid out together.
type Func struct {
	ID    FuncID
	Name  string
	Entry BlockID
	// Blocks lists the function's blocks in layout order; Blocks[0] is the
	// entry.
	Blocks []BlockID
	// JIT marks the whole function as JIT-compiled code.
	JIT bool
}
