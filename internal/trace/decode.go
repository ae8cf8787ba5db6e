package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ripple/internal/isa"
	"ripple/internal/program"
)

// ErrTruncatedTail reports a stream that ended cleanly in the middle of a
// packet (or of the header): every byte present decoded fine, the stream
// just stops early. It is the signature of a writer still appending — a
// tailer that sees it should wait for more bytes, where genuine corruption
// (which never wraps this sentinel) calls for resynchronization. Errors
// wrap the sentinel; test with errors.Is.
var ErrTruncatedTail = errors.New("trace: stream ends mid-packet")

// DamageRegion records one span of a damaged stream that a recovery-mode
// decode skipped.
type DamageRegion struct {
	// Offset is the stream byte offset at which the decode error was
	// detected.
	Offset int64
	// Resume is the byte offset just past the PSB sync point decoding
	// resumed at, or -1 when the stream ended before another sync point
	// was found.
	Resume int64
	// Reason is the packet error that invalidated the region.
	Reason string
}

// DecodeReport accounts a recovery-mode decode: how much of the declared
// trace survived and where damage was skipped. It is also populated (with
// no regions) by a clean strict decode.
type DecodeReport struct {
	// Declared is the block count the stream header promises.
	Declared uint64
	// Decoded counts the blocks actually emitted; never exceeds Declared.
	Decoded uint64
	// Regions lists the damaged spans skipped, in stream order.
	Regions []DamageRegion `json:",omitempty"`
}

// BlocksLost returns how many declared blocks the decode did not emit.
func (r DecodeReport) BlocksLost() uint64 {
	if r.Decoded >= r.Declared {
		return 0
	}
	return r.Declared - r.Decoded
}

// Coverage returns the decoded fraction of the declared trace, in [0, 1].
func (r DecodeReport) Coverage() float64 {
	if r.Declared == 0 {
		return 1
	}
	return float64(r.Decoded) / float64(r.Declared)
}

// Damaged reports whether any region of the stream was skipped.
func (r DecodeReport) Damaged() bool { return len(r.Regions) > 0 }

// Decoder reconstructs a basic-block execution sequence from a packet
// stream by walking the program's CFG, consuming TNT bits at conditional
// branches (and compressed returns) and TIP packets at indirect transfers,
// exactly like a PT software decoder walks the binary alongside the trace.
//
// In strict mode (NewDecoder) any malformed packet is a terminal error.
// In recovery mode (NewRecoveringDecoder) a malformed packet instead
// skips forward to the next PSB sync point (see Encoder.SyncEvery),
// resets the decode state there, and resumes; the damage is accounted in
// the DecodeReport. Every error carries the stream byte offset and the
// packet kind being read.
type Decoder struct {
	// Input: exactly one mode is active per decode. Streaming mode reads
	// through r (works over any io.Reader, including a blocking tail
	// reader); whole-buffer mode (whole == true) indexes buf directly —
	// the zero-copy path over an mmap'd trace or an in-memory stream.
	r     *bufio.Reader
	buf   []byte
	pos   int
	whole bool

	prog *program.Program
	// rec selects recovery mode; off is the count of stream bytes
	// consumed so far (the offset reported in errors and regions).
	rec bool
	off int64

	// remaining counts the blocks left to emit, from the stream header;
	// declared is the header's total (for error reporting).
	remaining uint64
	declared  uint64

	bits  uint64
	nbits int

	lastIP uint64
	stack  []program.BlockID
	cur    program.BlockID
	done   bool
	err    error
	report DecodeReport

	// priorDamage records that blocks were already lost before this
	// decoder's start point (a recovery decode resumed past earlier
	// damage): an early END is then expected and not re-accounted.
	priorDamage bool

	// onSync, when set, observes every sync point the decode passes: the
	// byte offset of its PSB magic and the count of blocks emitted before
	// it. For a clean decode that count is the 0-based ordinal of the
	// block the sync's TIP re-establishes; a recovery decode fires it at
	// resync-resume points too, where the count is the emitted total, not
	// a stream ordinal. A decode may resume at any observed offset (see
	// ResumeDecoder) — a PSB resets all decoder state — which is how a
	// tailing reader checkpoints a live trace.
	onSync func(off int64, block uint64)

	// interrupt, when set, classifies reader errors that pause rather
	// than damage the stream (a tailing reader's stall or rotation
	// signal): the decode surfaces them instead of resyncing past them,
	// and records no damage region for them.
	interrupt func(error) bool

	// tipCache memoizes entry-IP → block lookups for the whole-buffer
	// batch fast path: TIP targets repeat heavily (hot indirect callees,
	// return sites), and the program's map lookup dominates TIP decode
	// cost. Allocated on first use.
	tipCache *[tipCacheSize]tipCacheEnt
}

// tipCacheSize is the direct-mapped TIP target cache size (8 KB).
const tipCacheSize = 512

type tipCacheEnt struct {
	ip uint64
	id program.BlockID
}

// NewDecoder opens a packet stream produced by an Encoder over the same
// (identically laid out) program, in strict (fail-fast) mode.
func NewDecoder(r io.Reader, prog *program.Program) (*Decoder, error) {
	return newDecoder(r, prog, false)
}

// NewRecoveringDecoder opens a packet stream in recovery mode: packet
// errors skip forward to the next PSB sync point instead of aborting.
// The header itself must still be readable — without it there is no
// block count to bound the decode.
func NewRecoveringDecoder(r io.Reader, prog *program.Program) (*Decoder, error) {
	return newDecoder(r, prog, true)
}

func newDecoder(r io.Reader, prog *program.Program, rec bool) (*Decoder, error) {
	d := &Decoder{
		r:    bufio.NewReaderSize(r, 1<<16),
		prog: prog,
		rec:  rec,
		cur:  program.NoBlock,
	}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// newBytesDecoder opens an in-memory packet stream, decoding by direct
// indexing: no internal buffering, no copies. Over a memory-mapped trace
// file this is the zero-copy decode path.
func newBytesDecoder(data []byte, prog *program.Program, rec bool) (*Decoder, error) {
	d := &Decoder{
		whole: true,
		buf:   data,
		prog:  prog,
		rec:   rec,
		cur:   program.NoBlock,
	}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// readHeader parses the stream header: the PSB byte and the declared
// block count.
func (d *Decoder) readHeader() error {
	b, err := d.readByte()
	if err != nil {
		if err == io.EOF {
			return d.errAt("PSB", "reading stream header: %w", ErrTruncatedTail)
		}
		return d.errAt("PSB", "reading stream header: %w", err)
	}
	if b != pktPSB {
		return d.errAt("PSB", "stream does not start with PSB (got %#x)", b)
	}
	d.remaining, err = binary.ReadUvarint(countingByteReader{d})
	if err != nil {
		// ReadUvarint reports a cut before the varint as io.EOF and a cut
		// inside it as io.ErrUnexpectedEOF; both are a truncated tail.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return d.errAt("PSB", "reading block count: %w", ErrTruncatedTail)
		}
		return d.errAt("PSB", "reading block count: %w", err)
	}
	d.declared = d.remaining
	d.report.Declared = d.declared
	return nil
}

// ResumeSpec positions a ResumeDecoder at a previously observed sync
// point.
type ResumeSpec struct {
	// Declared is the block count the stream header promised.
	Declared uint64
	// Emitted is the number of blocks emitted before the sync point (for
	// a clean stream, the ordinal of the block the sync re-establishes).
	Emitted uint64
	// Off is the stream byte offset of the sync point's PSB magic; the
	// reader must be positioned exactly there.
	Off int64
	// Recover selects recovery mode (resync past damage, like
	// NewRecoveringDecoder).
	Recover bool
	// PriorDamage marks that blocks were lost before the resume point, so
	// an END packet arriving with blocks still unaccounted is the
	// expected shortfall, not fresh damage.
	PriorDamage bool
}

// ResumeDecoder resumes a decode in the middle of a stream at a sync
// point previously observed via OnSync: a PSB resets all decoder state,
// so nothing before the sync is needed. The caller owns reader
// placement; spec.Off only names the position for error reporting and
// region accounting.
func ResumeDecoder(r io.Reader, prog *program.Program, spec ResumeSpec) (*Decoder, error) {
	if spec.Emitted > spec.Declared {
		return nil, fmt.Errorf("trace: resume at %d blocks emitted exceeds declared %d", spec.Emitted, spec.Declared)
	}
	return &Decoder{
		r:           bufio.NewReaderSize(r, 1<<16),
		prog:        prog,
		cur:         program.NoBlock,
		rec:         spec.Recover,
		off:         spec.Off,
		declared:    spec.Declared,
		remaining:   spec.Declared - spec.Emitted,
		priorDamage: spec.PriorDamage,
		report:      DecodeReport{Declared: spec.Declared},
	}, nil
}

// OnSync registers an observer for every sync point the decode passes
// (see the field's contract). It must be set before the first Next.
func (d *Decoder) OnSync(fn func(off int64, block uint64)) { d.onSync = fn }

// SetInterrupt registers a classifier for reader errors that pause the
// stream rather than damage it (see the field's contract). Interrupted
// decodes surface the error from Next even in recovery mode; the decoder
// is not usable afterwards — resume from the last sync point instead.
func (d *Decoder) SetInterrupt(is func(error) bool) { d.interrupt = is }

// Declared returns the block count the stream header promises.
func (d *Decoder) Declared() uint64 { return d.declared }

// Report returns a snapshot of the decode accounting. It is complete
// once Next has returned io.EOF (recovery mode) or the decode has
// otherwise ended.
func (d *Decoder) Report() DecodeReport {
	rep := d.report
	rep.Regions = append([]DamageRegion(nil), d.report.Regions...)
	return rep
}

// errAt builds a decode error tagged with the current stream byte offset
// (the position just past the last byte consumed) and the packet kind
// being processed.
func (d *Decoder) errAt(kind, format string, args ...any) error {
	prefix := fmt.Sprintf("trace: offset %d (%s): ", d.off, kind)
	return fmt.Errorf(prefix+format, args...)
}

// readByte reads one raw byte, tracking the stream offset.
func (d *Decoder) readByte() (byte, error) {
	if d.whole {
		if d.pos >= len(d.buf) {
			return 0, io.EOF
		}
		b := d.buf[d.pos]
		d.pos++
		d.off++
		return b, nil
	}
	b, err := d.r.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

// peek returns the next n input bytes without consuming them, bufio
// Peek-style: fewer than n come back (with an error) only when the
// input ends first.
func (d *Decoder) peek(n int) ([]byte, error) {
	if d.whole {
		rest := d.buf[d.pos:]
		if len(rest) < n {
			return rest, io.EOF
		}
		return rest[:n], nil
	}
	return d.r.Peek(n)
}

// discard consumes up to n input bytes, returning how many were
// consumed; the caller advances d.off by that count.
func (d *Decoder) discard(n int) (int, error) {
	if d.whole {
		if m := len(d.buf) - d.pos; m < n {
			d.pos += m
			return m, io.EOF
		}
		d.pos += n
		return n, nil
	}
	return d.r.Discard(n)
}

// countingByteReader adapts the decoder's counted reads to io.ByteReader
// (for binary.ReadUvarint).
type countingByteReader struct{ d *Decoder }

func (c countingByteReader) ReadByte() (byte, error) { return c.d.readByte() }

// readPacketByte reads one byte of the named packet, converting EOF into
// a framing error (a well-formed stream always ends with an END packet).
// The error wraps ErrTruncatedTail: the bytes present were fine, the
// stream just stops mid-packet. Other reader errors are wrapped verbatim
// so interrupt classifiers can inspect them.
func (d *Decoder) readPacketByte(kind string) (byte, error) {
	b, err := d.readByte()
	if err == io.EOF {
		return 0, d.errAt(kind, "%w", ErrTruncatedTail)
	}
	if err != nil {
		return 0, d.errAt(kind, "read failed: %w", err)
	}
	return b, nil
}

// nextBit consumes one TNT bit, reading the next TNT packet if the buffer
// is drained.
func (d *Decoder) nextBit() (bool, error) {
	if d.nbits == 0 {
		if err := d.expect(pktTNT, "TNT"); err != nil {
			return false, err
		}
		n, err := d.readPacketByte("TNT")
		if err != nil {
			return false, err
		}
		if n == 0 || int(n) > maxTNTBits {
			return false, d.errAt("TNT", "packet with %d bits", n)
		}
		d.bits = 0
		for i := 0; i < int(n); i += 8 {
			by, err := d.readPacketByte("TNT")
			if err != nil {
				return false, err
			}
			d.bits |= uint64(by) << uint(i)
		}
		d.nbits = int(n)
	}
	bit := d.bits&1 != 0
	d.bits >>= 1
	d.nbits--
	return bit, nil
}

// expect consumes the next packet header byte and checks its type. END is
// surfaced as io.EOF to the caller.
func (d *Decoder) expect(kind byte, name string) error {
	b, err := d.readPacketByte(name)
	if err != nil {
		return err
	}
	if b == pktEnd {
		return io.EOF
	}
	if b != kind {
		return d.errAt(name, "expected packet %#x, got %#x", kind, b)
	}
	return nil
}

// nextTIP consumes a TIP packet and returns the block starting at the
// decompressed address.
func (d *Decoder) nextTIP() (program.BlockID, error) {
	if d.nbits != 0 {
		return program.NoBlock, d.errAt("TIP", "TIP needed with %d TNT bits pending", d.nbits)
	}
	if err := d.expect(pktTIP, "TIP"); err != nil {
		return program.NoBlock, err
	}
	n, err := d.readPacketByte("TIP")
	if err != nil {
		return program.NoBlock, err
	}
	if n > 8 {
		return program.NoBlock, d.errAt("TIP", "packet with %d delta bytes", n)
	}
	var delta uint64
	for i := 0; i < int(n); i++ {
		by, err := d.readPacketByte("TIP")
		if err != nil {
			return program.NoBlock, err
		}
		delta |= uint64(by) << uint(8*i)
	}
	d.lastIP ^= delta
	id, ok := d.prog.BlockAtEntry(d.lastIP)
	if !ok {
		return program.NoBlock, d.errAt("TIP", "target %#x is not a block entry", d.lastIP)
	}
	return id, nil
}

// lookupEntry is prog.BlockAtEntry through the decoder's direct-mapped
// TIP cache.
func (d *Decoder) lookupEntry(ip uint64) (program.BlockID, bool) {
	if d.tipCache == nil {
		d.tipCache = new([tipCacheSize]tipCacheEnt)
		for i := range d.tipCache {
			d.tipCache[i].id = program.NoBlock
		}
	}
	e := &d.tipCache[(ip*0x9E3779B97F4A7C15)>>55%tipCacheSize]
	if e.ip == ip && e.id != program.NoBlock {
		return e.id, true
	}
	id, ok := d.prog.BlockAtEntry(ip)
	if ok {
		*e = tipCacheEnt{ip: ip, id: id}
	}
	return id, ok
}

// refillTNT is the whole-buffer fast path for draining a TNT packet at a
// conditional branch with no buffered bits. It commits only when the
// packet is fully present and well formed; every anomaly — a possible
// sync point or magic tail, an END packet, a malformed or truncated TNT,
// plain junk — returns false with nothing consumed, and the slow path
// re-reads the same bytes to produce the exact strict/recovery behavior.
func (d *Decoder) refillTNT() bool {
	buf, p := d.buf, d.pos
	// A conditional branch with an empty TNT buffer is a syncable
	// position: a first byte matching the PSB magic may open a sync
	// point (or its truncated tail) and must go through peekSync.
	if p+1 >= len(buf) || buf[p] == psbMagic[0] || buf[p] != pktTNT {
		return false
	}
	nb := int(buf[p+1])
	if nb == 0 || nb > maxTNTBits {
		return false
	}
	nby := (nb + 7) / 8
	if p+2+nby > len(buf) {
		return false
	}
	var bits uint64
	for i := 0; i < nby; i++ {
		bits |= uint64(buf[p+2+i]) << uint(8*i)
	}
	d.bits, d.nbits = bits, nb
	d.pos = p + 2 + nby
	d.off += int64(2 + nby)
	return true
}

// fastTIP is the whole-buffer fast path for a TIP packet: parse the
// delta and resolve the target without consuming anything, then commit
// only on full success. checkSync guards the syncable read positions
// (indirect jumps and calls); an uncompressed return reads its TIP after
// a buffered TNT bit, where no sync point can sit, exactly as step does.
// Any anomaly returns NoBlock, false with the decoder untouched.
func (d *Decoder) fastTIP(checkSync bool) (program.BlockID, bool) {
	if d.nbits != 0 {
		return program.NoBlock, false
	}
	buf, p := d.buf, d.pos
	if p+1 >= len(buf) || (checkSync && buf[p] == psbMagic[0]) || buf[p] != pktTIP {
		return program.NoBlock, false
	}
	nb := int(buf[p+1])
	if nb > 8 || p+2+nb > len(buf) {
		return program.NoBlock, false
	}
	var delta uint64
	for i := 0; i < nb; i++ {
		delta |= uint64(buf[p+2+i]) << uint(8*i)
	}
	ip := d.lastIP ^ delta
	id, ok := d.lookupEntry(ip)
	if !ok {
		return program.NoBlock, false
	}
	d.lastIP = ip
	d.pos = p + 2 + nb
	d.off += int64(2 + nb)
	return id, true
}

// Next returns the next executed block, or io.EOF at the end of the
// stream. In strict mode the header's block count is enforced in both
// directions: a stream whose packets run out (or hit an early END)
// before the declared count is an error, not a silently shortened trace,
// and a completed stream must close with exactly an END packet. In
// recovery mode those conditions (and any packet error) end or resync
// the decode instead, and are accounted in the Report.
func (d *Decoder) Next() (program.BlockID, error) {
	if d.err != nil {
		return program.NoBlock, d.err
	}
	for !d.done {
		if d.remaining == 0 {
			d.done = true
			if err := d.finish(); err != nil {
				if d.rec {
					d.addRegion(err, -1)
					break
				}
				d.err = err
				return program.NoBlock, err
			}
			break
		}
		id, err := d.step()
		if err == nil {
			d.cur = id
			d.remaining--
			d.report.Decoded++
			return id, nil
		}
		if err == io.EOF { // END packet before the declared count
			err = d.errAt("END", "stream ended with %d of %d declared blocks missing", d.remaining, d.declared)
			if !d.rec {
				d.err = err
				return program.NoBlock, err
			}
			// When earlier damage (in this decode or, for a resumed
			// decode, before its start point) already accounts for the
			// shortfall, the end is expected. Otherwise the END is either
			// the writer finishing a short stream, which is the damage,
			// or a damaged byte read as END, which input after it gives
			// away: that one is resynced past below, like any packet
			// error.
			if len(d.report.Regions) > 0 || d.priorDamage {
				d.done = true
				break
			}
			if more, perr := d.peek(1); len(more) == 0 {
				if perr != nil && perr != io.EOF && d.interrupt != nil && d.interrupt(perr) {
					d.err = d.errAt("END", "read failed: %w", perr)
					return program.NoBlock, d.err
				}
				d.addRegion(err, -1)
				d.done = true
				break
			}
			err = d.errAt("END", "END packet with %d of %d declared blocks missing and input after it", d.remaining, d.declared)
		}
		if d.interrupt != nil && d.interrupt(err) {
			// A paused stream, not a damaged one: surface it without
			// accounting a region, in either mode.
			d.err = err
			return program.NoBlock, err
		}
		if !d.rec {
			d.err = err
			return program.NoBlock, err
		}
		if !d.resync(err) {
			d.done = true
			if d.err != nil { // interrupted mid-scan
				return program.NoBlock, d.err
			}
		}
	}
	return program.NoBlock, io.EOF
}

// NextBatch decodes up to len(out) blocks into out, returning how many
// it produced. It is Next amortized: transitions that touch no packet
// bytes — fall-throughs, direct jumps and calls, conditional branches
// and compressed returns served from already-buffered TNT bits — run in
// an inlined fast path, and only packet-consuming steps go through the
// full machinery. A non-nil error (io.EOF at a clean stream end) means
// the decode ended; the n blocks before it are valid. Accounting,
// recovery, and sync handling are exactly Next's: a sync point or
// stream end only sits at a packet-read position with no buffered TNT
// bits, so a transition served from d.bits can never skip one.
func (d *Decoder) NextBatch(out []program.BlockID) (int, error) {
	n := 0
	for n < len(out) {
		// The fast loop runs on local copies of the hot decode state
		// (TNT buffer, current block, remaining count) so the compiler
		// keeps them in registers; they are flushed back before any slow
		// step and at every loop exit. The packet helpers (refillTNT,
		// fastTIP) operate on the decoder, so the TNT locals sync around
		// those calls — cheap, since they only fire at packet boundaries.
		if d.err == nil && !d.done && d.cur != program.NoBlock {
			blocks := d.prog.Blocks
			bits, nbits := d.bits, d.nbits
			cur, remaining := d.cur, d.remaining
			var served uint64

			for remaining > 0 && n < len(out) {
				b := &blocks[cur]
				var id program.BlockID
				var ok bool
				switch b.Term {
				case isa.TermFallthrough:
					id = b.FallThrough
				case isa.TermJump:
					id = b.TakenTarget
				case isa.TermCall:
					d.stack = append(d.stack, b.FallThrough)
					id = b.TakenTarget
				case isa.TermCondBranch:
					if nbits == 0 {
						if !d.whole || !d.refillTNT() {
							goto flush
						}
						bits, nbits = d.bits, d.nbits
					}
					if bits&1 != 0 {
						id = b.TakenTarget
					} else {
						id = b.FallThrough
					}
					bits >>= 1
					nbits--
				case isa.TermIndirectJump:
					if !d.whole || nbits != 0 {
						goto flush
					}
					d.nbits = 0
					if id, ok = d.fastTIP(true); !ok {
						goto flush
					}
				case isa.TermIndirectCall:
					if !d.whole || nbits != 0 {
						goto flush
					}
					d.nbits = 0
					if id, ok = d.fastTIP(true); !ok {
						goto flush
					}
					d.stack = append(d.stack, b.FallThrough)
				case isa.TermRet:
					if nbits == 0 {
						if !d.whole || !d.refillTNT() {
							goto flush
						}
						bits, nbits = d.bits, d.nbits
					}
					if bits&1 != 0 {
						// Compressed (stack-predicted) return; an empty
						// stack is an error the slow path raises after
						// re-reading the bit, so only peek it here.
						if len(d.stack) == 0 {
							goto flush
						}
						bits >>= 1
						nbits--
						id = d.stack[len(d.stack)-1]
						d.stack = d.stack[:len(d.stack)-1]
					} else {
						// Uncompressed return: a TIP re-establishes the
						// target, valid only when the ret bit was the
						// last one buffered (more pending bits make the
						// TIP an error the slow path raises). The flush
						// writes the locals back untouched, so any
						// anomaly leaves the slow path to re-read bit
						// and packet from unchanged state.
						if !d.whole || nbits != 1 {
							goto flush
						}
						d.nbits = 0
						if id, ok = d.fastTIP(false); !ok {
							goto flush
						}
						bits, nbits = 0, 0
						d.stack = d.stack[:0]
					}
				default:
					goto flush
				}
				cur = id
				remaining--
				served++
				out[n] = id
				n++
			}

		flush:
			d.bits, d.nbits = bits, nbits
			d.cur = cur
			d.remaining = remaining
			d.report.Decoded += served
		}
		if n == len(out) {
			break
		}
		id, err := d.Next()
		if err != nil {
			return n, err
		}
		out[n] = id
		n++
	}
	return n, nil
}

// finish validates the end of a fully decoded stream: no TNT bits may be
// left over and the next packet must be END.
func (d *Decoder) finish() error {
	if d.nbits != 0 {
		return d.errAt("END", "%d unconsumed TNT bits at end of stream", d.nbits)
	}
	b, err := d.readPacketByte("END")
	if err != nil {
		return err
	}
	if b != pktEnd {
		return d.errAt("END", "expected END packet at end of stream, got %#x", b)
	}
	return nil
}

// addRegion records one damaged span.
func (d *Decoder) addRegion(cause error, resume int64) {
	d.report.Regions = append(d.report.Regions, DamageRegion{
		Offset: d.off,
		Resume: resume,
		Reason: cause.Error(),
	})
}

// resetState clears everything a PSB re-establishes: the TNT buffer,
// last-IP compression, the return-compression stack, and the current
// block (the next block comes from a full-IP TIP).
func (d *Decoder) resetState() {
	d.bits, d.nbits = 0, 0
	d.lastIP = 0
	d.stack = d.stack[:0]
	d.cur = program.NoBlock
}

// resync records a damaged region, scans forward to the next PSB sync
// point, and resets the decode state there. It reports false when the
// stream ends before another sync point is found. Every iteration
// consumes at least one byte, so recovery always terminates.
//
// An interrupt error surfacing mid-scan (a tailing reader pausing the
// stream) sets d.err and returns false WITHOUT recording the region: the
// scan did not complete, and a decode resumed from the last sync point
// will re-detect and re-account the damage once more bytes arrive.
func (d *Decoder) resync(cause error) bool {
	reg := DamageRegion{Offset: d.off, Resume: -1, Reason: cause.Error()}
	for {
		buf, perr := d.peek(len(psbMagic))
		if len(buf) < len(psbMagic) {
			if perr != nil && perr != io.EOF && d.interrupt != nil && d.interrupt(perr) {
				d.err = d.errAt("PSB", "resync interrupted: %w", perr)
				return false
			}
			n, _ := d.discard(len(buf))
			d.off += int64(n)
			d.report.Regions = append(d.report.Regions, reg)
			return false
		}
		if matchMagic(buf) {
			magicOff := d.off
			n, _ := d.discard(len(psbMagic))
			d.off += int64(n)
			d.resetState()
			reg.Resume = d.off
			d.report.Regions = append(d.report.Regions, reg)
			if d.onSync != nil {
				// The resume point is a valid anchor like any clean sync:
				// block counts emitted blocks (for a damaged stream there
				// is no knowable stream ordinal).
				d.onSync(magicOff, d.declared-d.remaining)
			}
			return true
		}
		if _, err := d.discard(1); err != nil {
			d.report.Regions = append(d.report.Regions, reg)
			return false
		}
		d.off++
	}
}

func matchMagic(buf []byte) bool {
	for i, b := range psbMagic {
		if buf[i] != b {
			return false
		}
	}
	return true
}

// peekSync reports whether the reader is positioned at a mid-stream PSB
// sync point. Sync points are only valid between TNT packets (the
// encoder flushes before emitting one), so callers check nbits == 0
// first.
func (d *Decoder) peekSync() bool {
	// Check the first byte before peeking the whole magic: a blocking
	// reader (a live tail) must not wait for len(psbMagic) bytes when the
	// next packet visibly is not a sync point — at a syncable position
	// only a real PSB starts with psbMagic[0].
	if b, err := d.peek(1); err != nil || b[0] != psbMagic[0] {
		return false
	}
	buf, _ := d.peek(len(psbMagic))
	return len(buf) == len(psbMagic) && matchMagic(buf)
}

// peekSyncTail reports whether the reader is positioned at a proper,
// EOF-terminated prefix of the PSB magic: a writer killed (or still
// writing) mid-magic. Without this check the partial magic's first byte
// would be read as a packet header and misclassified as corruption; with
// it, the decode reports ErrTruncatedTail and a tailer can wait for the
// rest of the magic to land.
func (d *Decoder) peekSyncTail() bool {
	if b, err := d.peek(1); err != nil || b[0] != psbMagic[0] {
		return false
	}
	buf, err := d.peek(len(psbMagic))
	if err != io.EOF || len(buf) == 0 || len(buf) >= len(psbMagic) {
		return false
	}
	for i, b := range buf {
		if b != psbMagic[i] {
			return false
		}
	}
	return true
}

// stepSync consumes a sync point: the PSB magic, a full decode-state
// reset, and the full-IP TIP that re-establishes the walk. For a
// conditional branch the TIP target is validated against the two static
// successors, so a sync point cannot silently teleport the walk;
// indirect transfers and returns accept any block entry, as the walk
// itself does.
func (d *Decoder) stepSync() (program.BlockID, error) {
	prev := d.cur
	if d.onSync != nil {
		d.onSync(d.off, d.declared-d.remaining)
	}
	n, err := d.discard(len(psbMagic))
	d.off += int64(n)
	if err != nil {
		return program.NoBlock, d.errAt("PSB", "truncated sync point: %v", err)
	}
	d.resetState()
	id, err := d.nextTIP()
	if err != nil {
		return program.NoBlock, err
	}
	if prev != program.NoBlock {
		if err := d.checkSyncSuccessor(prev, id); err != nil {
			return program.NoBlock, err
		}
	}
	return id, nil
}

// checkSyncSuccessor validates that the block a sync TIP re-established
// can actually follow prev in the CFG. Only conditional branches need
// the check: sync points sit only at packet-producing transitions (see
// syncableTerm), and the indirect ones accept any block entry.
func (d *Decoder) checkSyncSuccessor(prev, next program.BlockID) error {
	b := d.prog.Block(prev)
	if b.Term == isa.TermCondBranch && next != b.TakenTarget && next != b.FallThrough {
		return d.errAt("PSB", "sync TIP target (block %d) does not follow block %d in the CFG", next, prev)
	}
	return nil
}

func (d *Decoder) step() (program.BlockID, error) {
	if d.cur == program.NoBlock {
		if d.nbits == 0 {
			if d.peekSync() {
				return d.stepSync()
			}
			if d.peekSyncTail() {
				return program.NoBlock, d.errAt("PSB", "%w", ErrTruncatedTail)
			}
		}
		return d.nextTIP()
	}
	b := d.prog.Block(d.cur)
	// A sync point can only sit where this step performs a packet read:
	// at a packet-producing transition with no buffered TNT bits. At any
	// other step a magic at the read position belongs to a later step
	// and must not be consumed yet.
	if d.nbits == 0 && syncableTerm(b.Term) {
		if d.peekSync() {
			return d.stepSync()
		}
		if d.peekSyncTail() {
			return program.NoBlock, d.errAt("PSB", "%w", ErrTruncatedTail)
		}
	}
	switch b.Term {
	case isa.TermFallthrough:
		return b.FallThrough, nil
	case isa.TermJump:
		return b.TakenTarget, nil
	case isa.TermCall:
		d.stack = append(d.stack, b.FallThrough)
		return b.TakenTarget, nil
	case isa.TermCondBranch:
		taken, err := d.nextBit()
		if err != nil {
			return program.NoBlock, err
		}
		if taken {
			return b.TakenTarget, nil
		}
		return b.FallThrough, nil
	case isa.TermIndirectJump:
		return d.nextTIP()
	case isa.TermIndirectCall:
		t, err := d.nextTIP()
		if err != nil {
			return program.NoBlock, err
		}
		d.stack = append(d.stack, b.FallThrough)
		return t, nil
	case isa.TermRet:
		compressed, err := d.nextBit()
		if err != nil {
			return program.NoBlock, err
		}
		if compressed {
			n := len(d.stack)
			if n == 0 {
				return program.NoBlock, d.errAt("TNT", "compressed ret with empty call stack")
			}
			t := d.stack[n-1]
			d.stack = d.stack[:n-1]
			return t, nil
		}
		d.stack = d.stack[:0]
		return d.nextTIP()
	default:
		return program.NoBlock, d.errAt("walk", "block %d has invalid terminator %v", d.cur, b.Term)
	}
}

// Decode reads a whole stream into a block sequence, strictly.
func Decode(r io.Reader, prog *program.Program) ([]program.BlockID, error) {
	d, err := NewDecoder(r, prog)
	if err != nil {
		return nil, err
	}
	var out []program.BlockID
	for {
		id, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
}

// DecodeRecover reads a whole stream in recovery mode: packet errors
// skip forward to the next PSB sync point instead of aborting, and the
// report accounts what was decoded, what was lost, and where. The
// returned error is non-nil only for unusable inputs (an unreadable
// header); damage in the packet body never fails the call.
func DecodeRecover(r io.Reader, prog *program.Program) ([]program.BlockID, DecodeReport, error) {
	d, err := NewRecoveringDecoder(r, prog)
	if err != nil {
		return nil, DecodeReport{}, err
	}
	var out []program.BlockID
	for {
		id, err := d.Next()
		if err == io.EOF {
			return out, d.Report(), nil
		}
		if err != nil { // unreachable in recovery mode; defensive
			return out, d.Report(), err
		}
		out = append(out, id)
	}
}
