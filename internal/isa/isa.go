// Package isa defines the minimal instruction-set model shared by the
// program representation, the trace codec, and the simulators.
//
// Ripple operates at basic-block granularity, so individual instructions
// inside a block never need to be materialized; what matters is (a) how a
// block *terminates*, because that determines control flow, branch
// prediction, and what an Intel-PT-like trace must record, and (b) how many
// bytes and instructions a block occupies, because that determines which
// cache lines it touches and what the injected `invalidate` instructions
// cost in static and dynamic footprint.
package isa

import "fmt"

// TermKind describes how a basic block ends.
type TermKind uint8

const (
	// TermFallthrough: the block ends without a control-flow instruction
	// (e.g. it was split at a join point); execution continues at the next
	// block. Produces no trace packet.
	TermFallthrough TermKind = iota
	// TermCondBranch: a conditional direct branch with a taken target and a
	// fall-through successor. Produces one TNT bit in the trace.
	TermCondBranch
	// TermJump: an unconditional direct jump. Statically determined;
	// produces no trace packet.
	TermJump
	// TermCall: a direct call. Statically determined target; the matched
	// return address is pushed on the (decoder/predictor) return stack.
	TermCall
	// TermRet: a return. The target is recovered from the call stack (RET
	// compression); a TIP packet is emitted only when the stack mismatches.
	TermRet
	// TermIndirectJump: an indirect jump (e.g. a switch table or a JIT
	// dispatch). Always produces a TIP packet carrying the target address.
	TermIndirectJump
	// TermIndirectCall: an indirect call (e.g. a virtual dispatch). Always
	// produces a TIP packet; pushes a return address.
	TermIndirectCall
)

// String returns a short human-readable name for the terminator kind.
func (k TermKind) String() string {
	switch k {
	case TermFallthrough:
		return "fallthrough"
	case TermCondBranch:
		return "cond"
	case TermJump:
		return "jump"
	case TermCall:
		return "call"
	case TermRet:
		return "ret"
	case TermIndirectJump:
		return "ijump"
	case TermIndirectCall:
		return "icall"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// IsCall reports whether the terminator pushes a return address.
func (k TermKind) IsCall() bool {
	return k == TermCall || k == TermIndirectCall
}

// Valid reports whether k is a defined terminator kind.
func (k TermKind) Valid() bool { return k <= TermIndirectCall }

const (
	// LineBytesLog2 is log2 of the cache line size. All caches in the
	// evaluated hierarchy use 64-byte lines (Table II).
	LineBytesLog2 = 6
	// LineBytes is the cache line size in bytes.
	LineBytes = 1 << LineBytesLog2

	// InvalidateBytes is the encoded size of the injected `invalidate`
	// instruction. Modeled on CLDEMOTE (0F 1C /0 with a memory operand):
	// opcode + modrm + 4-byte displacement.
	InvalidateBytes = 7

	// AvgInstrBytes is the average instruction size used when deriving an
	// instruction count from a block's byte size; ~4 bytes/instruction is
	// typical for data-center x86 code.
	AvgInstrBytes = 4
)

// LineOf returns the cache-line address (byte address >> LineBytesLog2)
// containing byte address addr.
func LineOf(addr uint64) uint64 { return addr >> LineBytesLog2 }

// LinesSpanned returns the number of cache lines touched by a region of
// `size` bytes starting at `addr`. A zero-size region touches no lines.
func LinesSpanned(addr uint64, size uint32) int {
	if size == 0 {
		return 0
	}
	first := LineOf(addr)
	last := LineOf(addr + uint64(size) - 1)
	return int(last - first + 1)
}
