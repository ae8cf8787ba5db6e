// Package watch turns Ripple's offline profile-guided analysis into a
// continuous one: it tails a live, growing trace file, re-analyzes a
// rolling window of recent execution each epoch, and publishes versioned
// injection-plan revisions with hysteresis, checkpointing its position so
// a crashed or restarted daemon resumes without re-decoding the prefix.
//
// The package splits into four layers:
//
//   - TailSource/TailSeq (this file): a blockseq.Source over a growing
//     trace file. Reads past the current end of file block with seeded
//     exponential backoff instead of returning io.EOF, so the recovery
//     decoder distinguishes "writer still appending" (wait) from
//     corruption (resync). Stalls, rotation, and cancellation surface as
//     interrupt errors that pause the decode at its last sync anchor
//     without fabricating damage regions.
//   - State (state.go): the crash-safe .ptwatch checkpoint sidecar.
//   - Revision (revision.go): the canonical published-plan record.
//   - Run (watch.go): the epoch loop tying them together.
package watch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/program"
	"ripple/internal/stats"
	"ripple/internal/trace"
)

// Sentinel interrupt errors a tailing pass can end with. They classify
// via errors.Is; none of them indicates trace damage.
var (
	// ErrStalled reports that no new bytes arrived within the configured
	// stall window: the writer is presumed dead or wedged.
	ErrStalled = errors.New("watch: trace writer stalled")
	// ErrRotated reports that the trace path no longer names the file the
	// pass was reading (fresh inode, or the file shrank below the read
	// position): the trace was rotated and the tail must start over.
	ErrRotated = errors.New("watch: trace file rotated")
	// ErrCanceled reports that the pass's Done channel closed.
	ErrCanceled = errors.New("watch: tail canceled")
)

// IsInterrupt reports whether err is a pause signal from the tailing
// reader (stall, rotation, cancellation) rather than trace damage. The
// decoder is handed this classifier via SetInterrupt, so interrupted
// decodes surface the signal instead of resyncing past it.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrStalled) || errors.Is(err, ErrRotated) || errors.Is(err, ErrCanceled)
}

// TailConfig shapes one tailing pass.
type TailConfig struct {
	// Follow keeps the pass alive at end-of-file, polling for appended
	// bytes. False reads the file as a static snapshot (a plain recovery
	// decode), which is how the conformance tests exercise the source.
	Follow bool
	// Poll and MaxPoll bound the exponential backoff between polls of a
	// quiet file (defaults 2ms and 250ms). Each sleep adds up to half its
	// length as jitter, drawn from a fixed-seed RNG.
	Poll, MaxPoll time.Duration
	// Stall bounds how long a read waits for new bytes before giving up
	// with ErrStalled; 0 waits forever.
	Stall time.Duration
	// Done, when non-nil, cancels blocked reads: they return ErrCanceled.
	Done <-chan struct{}
}

func (c TailConfig) withDefaults() TailConfig {
	if c.Poll <= 0 {
		c.Poll = 2 * time.Millisecond
	}
	if c.MaxPoll < c.Poll {
		c.MaxPoll = 250 * time.Millisecond
		if c.MaxPoll < c.Poll {
			c.MaxPoll = c.Poll
		}
	}
	return c
}

// TailSource is a blockseq.Source over a (possibly still growing) trace
// file. Every pass decodes in recovery mode from the start of the file;
// passes over the same bytes replay identically, and a pass that was
// checkpointed resumes from its last sync anchor (see TailSeq.Restore)
// instead of re-decoding the prefix.
type TailSource struct {
	path string
	prog *program.Program
	cfg  TailConfig
}

// NewTailSource tails the trace file at path against prog.
func NewTailSource(path string, prog *program.Program, cfg TailConfig) *TailSource {
	return &TailSource{path: path, prog: prog, cfg: cfg.withDefaults()}
}

// Open implements blockseq.Source.
func (s *TailSource) Open() blockseq.Seq { return s.OpenTail() }

// OpenTail starts one tailing pass with its concrete type, exposing the
// tail-specific accessors (anchors, damage regions, declared counts).
func (s *TailSource) OpenTail() *TailSeq { return &TailSeq{src: s} }

// tailReader reads a growing file at a tracked offset. At end-of-file
// (with Follow set) it blocks with seeded exponential backoff until new
// bytes land, watching for rotation, cancellation, and stalls; those
// conditions surface as the package's interrupt sentinels. Errors are
// sticky: once a read fails, every later read fails the same way.
type tailReader struct {
	path string
	cfg  TailConfig
	rng  *stats.RNG

	f   *os.File
	fi  os.FileInfo
	off int64
	err error
}

func newTailReader(path string, cfg TailConfig, off int64) *tailReader {
	return &tailReader{path: path, cfg: cfg, rng: stats.NewRNG(0), off: off}
}

func (r *tailReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// fail records a sticky error and returns it.
func (r *tailReader) fail(err error) error {
	r.err = err
	return err
}

// readOnce attempts one read at the current offset. It returns (0, nil)
// when the file simply has no bytes there yet (including the file not
// existing yet in follow mode).
func (r *tailReader) readOnce(p []byte) (int, error) {
	if r.f == nil {
		f, err := os.Open(r.path)
		if err != nil {
			if os.IsNotExist(err) && r.cfg.Follow {
				return 0, nil // writer has not created the file yet
			}
			return 0, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return 0, err
		}
		r.f, r.fi = f, fi
	}
	n, err := r.f.ReadAt(p, r.off)
	if n > 0 {
		r.off += int64(n)
		return n, nil
	}
	if err == io.EOF {
		return 0, nil
	}
	return 0, err
}

// rotated reports whether the path no longer names the open file, or the
// file shrank below the read position (an in-place truncation). Stat
// errors other than absence are treated as transient.
func (r *tailReader) rotated() bool {
	if r.f == nil {
		return false
	}
	fi, err := os.Stat(r.path)
	if err != nil {
		return os.IsNotExist(err) // deleted out from under the tail
	}
	return !os.SameFile(fi, r.fi) || fi.Size() < r.off
}

func (r *tailReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	delay := r.cfg.Poll
	var waited time.Duration
	for {
		// Rotation is checked before every read, not only when the file
		// is quiet: a rotated-in replacement longer than the read offset
		// would otherwise be decoded silently as a continuation.
		if r.cfg.Follow && r.rotated() {
			return 0, r.fail(fmt.Errorf("watch: offset %d: %w", r.off, ErrRotated))
		}
		n, err := r.readOnce(p)
		if n > 0 {
			return n, nil
		}
		if err != nil {
			return 0, r.fail(err)
		}
		if !r.cfg.Follow {
			return 0, io.EOF
		}
		if r.cfg.Done != nil {
			select {
			case <-r.cfg.Done:
				return 0, r.fail(ErrCanceled)
			default:
			}
		}
		if r.cfg.Stall > 0 && waited >= r.cfg.Stall {
			return 0, r.fail(fmt.Errorf("watch: no new bytes at offset %d for %v: %w", r.off, r.cfg.Stall, ErrStalled))
		}
		// Sleep with jitter in [delay, 1.5*delay), doubling up to MaxPoll.
		d := delay + time.Duration(r.rng.Intn(int(delay/2)+1))
		if r.cfg.Done != nil {
			select {
			case <-r.cfg.Done:
				return 0, r.fail(ErrCanceled)
			case <-time.After(d):
			}
		} else {
			time.Sleep(d)
		}
		waited += d
		if delay *= 2; delay > r.cfg.MaxPoll {
			delay = r.cfg.MaxPoll
		}
	}
}

// TailSeq is one tailing pass: a recovery-mode decode over the growing
// file. Its Checkpoint/Restore marks survive serialization across
// process boundaries: a mark names the pass's last sync anchor (a PSB
// byte offset plus the absolute block count emitted before it) and how
// many blocks to discard past it, so a fresh process restores by
// re-decoding only from the anchor, never the whole prefix.
type TailSeq struct {
	src *TailSource
	tr  *tailReader
	d   *trace.Decoder

	started bool
	done    bool
	err     error

	declared uint64
	emitted  uint64 // absolute blocks consumed (restore base + Next successes)

	// The restore anchor: the last sync point passed. anchorOff == 0
	// means the stream start (restore re-reads the header); otherwise it
	// is the byte offset of a PSB magic. skip counts blocks emitted past
	// the anchor; anchorPrior records damage before it.
	anchorOff     int64
	anchorEmitted uint64
	skip          uint64
	anchorPrior   bool

	// restore state parsed from a mark, applied lazily on first Next.
	// origMark holds the restored mark until its re-decode completes, so
	// a checkpoint taken mid-restore cannot name a regressed position.
	restored bool
	origMark []byte

	// regions accumulates damage regions deduplicated by offset: a
	// restored pass re-detects (deterministically) any damage between
	// its anchor and its previous position, and must not double-count.
	regions   []trace.DamageRegion
	regionOff map[int64]bool
}

// Declared returns the block count the stream header promises (0 before
// the header has been read).
func (s *TailSeq) Declared() uint64 { return s.declared }

// Emitted returns the absolute number of stream blocks consumed: the
// restore point plus every block this pass returned.
func (s *TailSeq) Emitted() uint64 { return s.emitted }

// RegionCount returns how many distinct damage regions the pass has
// observed so far (cheap; poll it per block).
func (s *TailSeq) RegionCount() int { return len(s.regions) }

// Regions returns the observed damage regions in stream order. The slice
// is the pass's own accounting: callers must not modify it.
func (s *TailSeq) Regions() []trace.DamageRegion { return s.regions }

// Close releases the pass's file handle early; an exhausted pass has
// already released it.
func (s *TailSeq) Close() error {
	s.done = true
	return s.closeReader()
}

func (s *TailSeq) closeReader() error {
	if s.tr == nil {
		return nil
	}
	err := s.tr.Close()
	s.tr = nil
	return err
}

// mergeRegions folds the decoder's accounting into the pass's
// deduplicated region list. Recovery decoding is deterministic for a
// given byte stream, so a restored pass re-detecting old damage
// reproduces the identical offsets and the dedupe is exact.
func (s *TailSeq) mergeRegions() {
	if s.d == nil {
		return
	}
	rep := s.d.Report()
	if len(rep.Regions) == 0 {
		return
	}
	if s.regionOff == nil {
		s.regionOff = make(map[int64]bool)
	}
	for _, reg := range rep.Regions {
		if s.regionOff[reg.Offset] {
			continue
		}
		s.regionOff[reg.Offset] = true
		s.regions = append(s.regions, reg)
	}
}

// start opens the reader and decoder, honoring a pending restore: a
// restored pass re-decodes from its anchor and silently discards the
// blocks already consumed past it.
func (s *TailSeq) start() error {
	s.started = true
	onSync := func(off int64, block uint64) {
		// Damage regions are appended before the resync fires this
		// observer, so merging here keeps the region list current at
		// every anchor change.
		s.mergeRegions()
		s.anchorOff = off
		s.anchorEmitted = block
		s.skip = 0
		s.anchorPrior = s.anchorPrior || len(s.regions) > 0
	}
	discard := s.skip
	s.skip = 0
	if s.restored && s.anchorOff > 0 {
		s.tr = newTailReader(s.src.path, s.src.cfg, s.anchorOff)
		d, err := trace.ResumeDecoder(s.tr, s.src.prog, trace.ResumeSpec{
			Declared:    s.declared,
			Emitted:     s.anchorEmitted,
			Off:         s.anchorOff,
			Recover:     true,
			PriorDamage: s.anchorPrior,
		})
		if err != nil {
			return err
		}
		s.d = d
	} else {
		s.tr = newTailReader(s.src.path, s.src.cfg, 0)
		d, err := trace.NewRecoveringDecoder(s.tr, s.src.prog)
		if err != nil {
			return err
		}
		s.d = d
		s.declared = d.Declared()
	}
	s.d.SetInterrupt(IsInterrupt)
	s.d.OnSync(onSync)
	// Re-decode up to the restore position, discarding blocks already
	// delivered before the checkpoint. Anchors passed during the replay
	// advance the anchor state exactly as they did originally (onSync
	// resets skip), and re-detected damage merges deduplicated.
	for i := uint64(0); i < discard; i++ {
		if _, err := s.d.Next(); err != nil {
			return err
		}
		s.skip++
	}
	s.origMark = nil // restore complete: live state now owns the position
	return nil
}

func (s *TailSeq) Next() (program.BlockID, bool) {
	if s.done || s.err != nil {
		return program.NoBlock, false
	}
	if !s.started {
		if err := s.startChecked(); err != nil {
			return program.NoBlock, false
		}
	}
	id, err := s.d.Next()
	if err != nil {
		s.finish(err)
		return program.NoBlock, false
	}
	s.emitted++
	s.skip++
	return id, true
}

// startChecked runs start and classifies its error.
func (s *TailSeq) startChecked() error {
	if err := s.start(); err != nil {
		s.finish(err)
		return err
	}
	return nil
}

// finish ends the pass: a clean end-of-stream leaves err nil, anything
// else (interrupts included) is the pass error.
func (s *TailSeq) finish(err error) {
	s.mergeRegions()
	s.done = true
	if err != io.EOF {
		s.err = err
	}
	s.closeReader()
}

func (s *TailSeq) Err() error { return s.err }

// Mark layout: version, flags, then the anchor fields as uvarints.
const (
	markVersion    = 1
	markFlagPrior  = 1 << 0
	markFlagHeader = 1 << 1 // the pass had read the stream header
	markFields     = 6
)

// tailMark is a parsed Checkpoint mark.
type tailMark struct {
	flags         uint64
	anchorOff     int64
	anchorEmitted uint64
	skip          uint64
	declared      uint64
}

// position is the absolute number of blocks consumed at the mark.
func (m tailMark) position() uint64 { return m.anchorEmitted + m.skip }

// encode writes the mark in its wire layout.
func (m tailMark) encode() []byte {
	b := make([]byte, 0, markFields*binary.MaxVarintLen64)
	for _, v := range [markFields]uint64{markVersion, m.flags, uint64(m.anchorOff), m.anchorEmitted, m.skip, m.declared} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// parseMark decodes a mark taken by Checkpoint, rejecting anything
// Checkpoint cannot have written: another version, unknown flag bits, a
// position past the declared count, or a position without the header
// flag.
func parseMark(raw []byte) (tailMark, error) {
	var fields [markFields]uint64
	rest := raw
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return tailMark{}, fmt.Errorf("watch: corrupt tail mark (field %d)", i)
		}
		fields[i], rest = v, rest[n:]
	}
	if len(rest) != 0 {
		return tailMark{}, fmt.Errorf("watch: corrupt tail mark (%d trailing bytes)", len(rest))
	}
	if fields[0] != markVersion {
		return tailMark{}, fmt.Errorf("watch: tail mark version %d (want %d)", fields[0], markVersion)
	}
	m := tailMark{flags: fields[1], anchorOff: int64(fields[2]), anchorEmitted: fields[3], skip: fields[4], declared: fields[5]}
	if m.flags&^(markFlagPrior|markFlagHeader) != 0 {
		return tailMark{}, fmt.Errorf("watch: tail mark has unknown flags %#x", m.flags)
	}
	if m.anchorOff < 0 || m.anchorEmitted > m.declared || m.skip > m.declared-m.anchorEmitted {
		return tailMark{}, fmt.Errorf("watch: tail mark position %d+%d exceeds declared %d", m.anchorEmitted, m.skip, m.declared)
	}
	if m.flags&markFlagHeader == 0 && (m.anchorOff != 0 || m.position() != 0) {
		return tailMark{}, fmt.Errorf("watch: tail mark mixes unstarted flag with a position")
	}
	return m, nil
}

// Checkpoint returns a mark for the last consistent position — the sync
// anchor plus the blocks consumed past it. The mark remains valid even
// after an interrupt: the interrupted suffix is simply re-decoded on
// restore. Marks are plain bytes and survive disk round-trips across
// process boundaries.
func (s *TailSeq) Checkpoint() []byte {
	if s.origMark != nil {
		// The restore's re-decode has not completed: the original mark is
		// still the last consistent position.
		return append([]byte(nil), s.origMark...)
	}
	m := tailMark{anchorOff: s.anchorOff, anchorEmitted: s.anchorEmitted, skip: s.skip, declared: s.declared}
	if s.anchorPrior {
		m.flags |= markFlagPrior
	}
	if s.started || s.restored {
		m.flags |= markFlagHeader
	}
	return m.encode()
}

// Restore positions a fresh pass at a mark taken by Checkpoint (in this
// or any earlier process). The actual re-decode from the anchor happens
// lazily on the first Next.
func (s *TailSeq) Restore(m []byte) error {
	if s.started {
		return fmt.Errorf("watch: restore on a started pass")
	}
	mk, err := parseMark(m)
	if err != nil {
		return err
	}
	if mk.flags&markFlagHeader == 0 {
		// Checkpoint of a never-started pass: restoring it is a no-op.
		return nil
	}
	s.restored = true
	s.origMark = append([]byte(nil), m...)
	s.anchorOff = mk.anchorOff
	s.anchorEmitted = mk.anchorEmitted
	s.skip = mk.skip
	s.declared = mk.declared
	s.anchorPrior = mk.flags&markFlagPrior != 0
	s.emitted = mk.position()
	return nil
}
