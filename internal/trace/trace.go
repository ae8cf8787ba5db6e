// Package trace implements the hardware control-flow trace Ripple profiles
// with: a compact, Intel-PT-like packet stream that records only what the
// hardware cannot reconstruct from the static CFG — one taken/not-taken
// bit per conditional branch (TNT packets), target-IP packets for indirect
// transfers (TIP packets, with last-IP delta compression), and return
// compression against a decoder-side call stack. Everything else (direct
// jumps, calls, fall-throughs) is recovered by walking the program's CFG,
// exactly as a PT decoder walks the binary.
//
// Encode(Decode(x)) == x for any basic-block trace consistent with the
// program, and the encoding achieves a small fraction of a byte per
// executed block on the synthetic data-center workloads, mirroring PT's
// <1% runtime overhead claim (Sec. III-A of the paper).
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"ripple/internal/blockseq"
	"ripple/internal/isa"
	"ripple/internal/program"
)

// Packet type bytes.
const (
	pktEnd byte = 0x00 // end of stream
	pktPSB byte = 0x01 // stream start / sync
	pktTNT byte = 0x02 // taken/not-taken bits: count byte + ceil(n/8) bytes
	pktTIP byte = 0x03 // target IP: sig-byte count + XOR-delta bytes
)

// psbMagic is the mid-stream sync-point marker: pktPSB followed by three
// bytes that can never begin a packet, echoing (at reduced length) the
// unique 16-byte PSB pattern hardware PT emits so a decoder can scan
// forward to a known-good state after damage. The stream header's PSB is
// not followed by the magic (it carries the block count instead), which
// keeps streams encoded without sync points byte-identical to earlier
// encoders.
var psbMagic = [4]byte{pktPSB, 0x82, 0x02, 0x82}

// maxTNTBits is the TNT buffer capacity (Intel PT long TNT carries 47
// bits; we round to a whole byte budget).
const maxTNTBits = 48

// Stats reports what one encode produced.
type Stats struct {
	Blocks    uint64
	TNTBits   uint64
	TIPs      uint64
	RetsTotal uint64
	// RetsCompressed counts returns encoded as a single TNT bit because
	// the decoder-side call stack predicts their target.
	RetsCompressed uint64
	// Syncs counts mid-stream PSB sync points emitted (SyncEvery).
	Syncs uint64
	Bytes uint64
}

// BitsPerBlock returns the encoding density.
func (s Stats) BitsPerBlock() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Bytes*8) / float64(s.Blocks)
}

// Encoder serializes a basic-block execution sequence against a program.
// Packets are buffered so that Close can prepend the header (PSB + block
// count); the decoder needs the count because a trace may end in a run of
// statically determined blocks that consume no packets.
type Encoder struct {
	w    io.Writer
	buf  bytes.Buffer
	prog *program.Program

	bits  uint64
	nbits int

	lastIP uint64
	stack  []program.BlockID
	prev   program.BlockID
	stats  Stats
	err    error

	// syncEvery > 0 emits a PSB sync point every syncEvery blocks;
	// sinceSync counts blocks since the last sync (or the stream start).
	syncEvery int
	sinceSync int
}

// NewEncoder starts a packet stream for traces of prog, written to w at
// Close. The program must be laid out (addresses assigned).
func NewEncoder(w io.Writer, prog *program.Program) *Encoder {
	return &Encoder{
		w:    w,
		prog: prog,
		prev: program.NoBlock,
	}
}

// SyncEvery makes the encoder emit a periodic PSB sync point roughly
// every n blocks — at the first packet-producing transition once n
// blocks have passed (see syncableTerm) — exactly like hardware PT's
// periodic PSB: pending TNT bits are flushed, last-IP compression and
// the return-compression stack reset, and the block that follows is
// re-established with a full-IP TIP. A
// damaged stream can then be decoded in recovery mode, which skips
// forward to the next sync point instead of aborting. n <= 0 (the
// default) emits no sync points and keeps the stream byte-identical to
// earlier encoders. Call before the first Step.
func (e *Encoder) SyncEvery(n int) {
	e.syncEvery = n
}

func (e *Encoder) writeByte(b byte) {
	if e.err != nil {
		return
	}
	e.buf.WriteByte(b)
	e.stats.Bytes++
}

func (e *Encoder) flushTNT() {
	if e.nbits == 0 || e.err != nil {
		return
	}
	e.writeByte(pktTNT)
	e.writeByte(byte(e.nbits))
	for i := 0; i < e.nbits; i += 8 {
		e.writeByte(byte(e.bits >> uint(i)))
	}
	e.bits, e.nbits = 0, 0
}

func (e *Encoder) pushBit(b bool) {
	if b {
		e.bits |= 1 << uint(e.nbits)
	}
	e.nbits++
	e.stats.TNTBits++
	if e.nbits == maxTNTBits {
		e.flushTNT()
	}
}

// emitTIP writes a target-IP packet with last-IP XOR compression: only the
// low bytes that differ from the previous TIP are transmitted.
func (e *Encoder) emitTIP(addr uint64) {
	e.flushTNT() // preserve packet order for sequential decoding
	delta := addr ^ e.lastIP
	n := 0
	for d := delta; d != 0; d >>= 8 {
		n++
	}
	e.writeByte(pktTIP)
	e.writeByte(byte(n))
	for i := 0; i < n; i++ {
		e.writeByte(byte(delta >> uint(8*i)))
	}
	e.lastIP = addr
	e.stats.TIPs++
}

// syncableTerm reports whether a transition out of a block with this
// terminator may be replaced by a sync point. Only packet-producing
// transitions qualify: the decoder performs a read at exactly that step,
// so the magic at the read position identifies the sync unambiguously.
// Statically-determined transitions (fallthrough, jump, call) consume no
// packets — a sync there could not be attributed to the right step, as
// the decoder's read position reaches the magic while the walk may still
// be several static steps behind.
func syncableTerm(t isa.TermKind) bool {
	switch t {
	case isa.TermCondBranch, isa.TermIndirectJump, isa.TermIndirectCall, isa.TermRet:
		return true
	}
	return false
}

// emitSync writes a mid-stream sync point followed by a full-IP TIP for
// bid: pending TNT bits are flushed and last-IP compression and the
// return stack reset, mirroring exactly the state reset a decoder
// performs at a PSB. The transition from the previous block is not
// encoded — the TIP carries the actual successor, which in a valid
// stream continues the CFG walk.
func (e *Encoder) emitSync(bid program.BlockID) {
	e.flushTNT()
	for _, b := range psbMagic {
		e.writeByte(b)
	}
	e.lastIP = 0
	e.stack = e.stack[:0]
	e.emitTIP(e.prog.Block(bid).Addr)
	e.stats.Syncs++
}

// Step records the execution of block `bid`. The first call establishes
// the trace start (emitting a TIP for it); each later call encodes how the
// previous block reached this one.
func (e *Encoder) Step(bid program.BlockID) error {
	if e.err != nil {
		return e.err
	}
	if e.prev == program.NoBlock {
		e.emitTIP(e.prog.Block(bid).Addr)
		e.prev = bid
		e.stats.Blocks++
		e.sinceSync = 1
		return e.err
	}
	b := e.prog.Block(e.prev)
	if e.syncEvery > 0 && e.sinceSync >= e.syncEvery && syncableTerm(b.Term) {
		e.emitSync(bid)
		e.prev = bid
		e.stats.Blocks++
		e.sinceSync = 1
		return e.err
	}
	switch b.Term {
	case isa.TermFallthrough, isa.TermJump:
		// Statically determined: nothing to record.
	case isa.TermCall:
		e.stack = append(e.stack, b.FallThrough)
	case isa.TermCondBranch:
		e.pushBit(bid == b.TakenTarget)
	case isa.TermIndirectJump:
		e.emitTIP(e.prog.Block(bid).Addr)
	case isa.TermIndirectCall:
		e.emitTIP(e.prog.Block(bid).Addr)
		e.stack = append(e.stack, b.FallThrough)
	case isa.TermRet:
		e.stats.RetsTotal++
		// RET compression: if the tracked call stack predicts the target,
		// a single "taken" bit suffices; otherwise a "not-taken" bit
		// followed by a TIP resynchronizes (and resets the stack, since
		// the hardware's shadow stack is out of sync at that point).
		if n := len(e.stack); n > 0 && e.stack[n-1] == bid {
			e.stack = e.stack[:n-1]
			e.pushBit(true)
			e.stats.RetsCompressed++
		} else {
			e.pushBit(false)
			e.emitTIP(e.prog.Block(bid).Addr)
			e.stack = e.stack[:0]
		}
	default:
		e.err = fmt.Errorf("trace: block %d has invalid terminator %v", e.prev, b.Term)
	}
	e.prev = bid
	e.stats.Blocks++
	e.sinceSync++
	return e.err
}

// Close flushes pending bits, writes the header (PSB + block count) and
// the buffered packets to the underlying writer, and returns the encoding
// statistics.
func (e *Encoder) Close() (Stats, error) {
	if e.err != nil {
		return e.stats, e.err
	}
	e.flushTNT()
	e.writeByte(pktEnd)
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = pktPSB
	n := binary.PutUvarint(hdr[1:], e.stats.Blocks)
	e.stats.Bytes += uint64(1 + n)
	if _, err := e.w.Write(hdr[:1+n]); err != nil {
		e.err = err
		return e.stats, err
	}
	if _, err := e.buf.WriteTo(e.w); err != nil {
		e.err = err
	}
	return e.stats, e.err
}

// EncodeSourceSync serializes a block source in one streaming pass, with
// a periodic PSB sync point every syncEvery blocks (see
// Encoder.SyncEvery; syncEvery <= 0 emits none). Only the packet bytes
// are buffered (the header carries the block count, known at Close), so
// peak memory is O(encoded bytes) — a fraction of a byte per block —
// rather than O(blocks).
func EncodeSourceSync(w io.Writer, prog *program.Program, src blockseq.Source, syncEvery int) (Stats, error) {
	e := NewEncoder(w, prog)
	e.SyncEvery(syncEvery)
	seq := src.Open()
	for {
		bid, ok := seq.Next()
		if !ok {
			break
		}
		if err := e.Step(bid); err != nil {
			return e.stats, err
		}
	}
	if err := seq.Err(); err != nil {
		return e.stats, err
	}
	return e.Close()
}
