package frontend

import (
	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// DemandLines expands a basic-block stream into the exact demand
// instruction-line access sequence the simulator issues: each executed
// block touches its laid-out lines in order, and consecutive accesses to
// the same line are coalesced (sequential fetch stays within a line
// without re-probing the cache).
//
// blockOf[i] is the stream index of the block that produced stream
// position i, which is how Ripple's eviction analysis maps oracle eviction
// events back onto basic blocks. Every consumer that needs positions
// consistent with the simulator (the accuracy oracle, the eviction
// analysis) must use this function.
//
// The output is inherently O(stream length): the oracles this feeds need
// the whole access sequence with future knowledge. The input, however, is
// consumed one block at a time.
func DemandLines(prog *program.Program, src blockseq.Source) (lines []uint64, blockOf []int32, err error) {
	return DemandLinesSeq(prog, src.Open(), blockseq.CapHint(src, 0))
}

// DemandLinesSeq is DemandLines over an already-open pass, so a consumer
// that wraps the pass (the eviction analysis counts executions as the
// expansion pulls blocks) can expand it without re-opening the source.
// blocksHint, when positive, pre-sizes the output for a stream of that
// many blocks.
func DemandLinesSeq(prog *program.Program, seq blockseq.Seq, blocksHint int) (lines []uint64, blockOf []int32, err error) {
	capHint := 1024
	if blocksHint > 0 {
		// Clamp: a caller's hint may descend from an unvalidated trace
		// header, which must not drive the allocation.
		capHint = min(blocksHint, 1<<20) * 3 / 2
	}
	lines = make([]uint64, 0, capHint)
	blockOf = make([]int32, 0, capHint)
	err = demandWalk(prog, seq, func(l uint64, ti int32) bool {
		lines = append(lines, l)
		blockOf = append(blockOf, ti)
		return true
	})
	return lines, blockOf, err
}

// demandWalk runs one pass of seq and calls visit with every demand line
// in fetch order and the stream index of the block that fetched it,
// until the pass ends or visit returns false. It is the expansion rule
// of DemandLines and DemandEvents; sim.run keeps its own inline copy on
// the hot path, and the tests hold the two equal.
func demandWalk(prog *program.Program, seq blockseq.Seq, visit func(line uint64, block int32) bool) error {
	last := ^uint64(0)
	for ti := int32(0); ; ti++ {
		bid, ok := seq.Next()
		if !ok {
			return seq.Err()
		}
		first, end := prog.Block(bid).LineRange()
		for l := first; l < end; l++ {
			if l == last {
				continue
			}
			last = l
			if !visit(l, ti) {
				return nil
			}
		}
	}
}
