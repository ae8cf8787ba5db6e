// Seek-indexed replay: a one-scan index of a stream's PSB sync points
// lets a decoder start at the nearest sync at or before any block
// ordinal instead of re-walking the whole prefix, making repeated
// partial passes (window replay, checkpointed tuning) cost work
// proportional to what they actually read.
//
// The index persists next to the trace as a `.ptidx` sidecar keyed by
// the trace file's SHA-256, so a stale index — the trace was regenerated
// in place — is detected and rebuilt, never silently used; a corrupt or
// truncated sidecar is treated as absent.
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// indexMagic heads every sidecar file; the digit is the format version.
// v2 added the trace length after the hash, so a sidecar built over a
// prefix of a still-growing trace can be verified (hash the recorded
// prefix) and extended instead of rebuilt. v1 sidecars fail the magic
// check and are rebuilt once.
const indexMagic = "RPTIDX2\n"

var (
	// ErrIndexStale reports a sidecar whose recorded trace hash does not
	// match the trace file: the trace changed after the index was built.
	ErrIndexStale = errors.New("trace: index does not match trace file")
	// ErrIndexCorrupt reports a sidecar that fails structural validation
	// (bad magic, checksum, or framing); treat it as absent and rebuild.
	ErrIndexCorrupt = errors.New("trace: corrupt index sidecar")
)

// IndexEntry marks one mid-stream sync point.
type IndexEntry struct {
	// Off is the stream byte offset of the sync point's PSB magic.
	Off int64
	// Block is the 0-based ordinal of the first block decodable at Off
	// (the block the sync's full-IP TIP re-establishes).
	Block uint64
}

// Index is a seek table over one encoded stream: decoding may start at
// byte 0 (ordinal 0) or at any entry's offset (its ordinal), because a
// PSB sync point resets all decoder state.
type Index struct {
	// Declared is the block count the stream header promises.
	Declared uint64
	// Entries lists every sync point in stream order; both fields are
	// strictly increasing.
	Entries []IndexEntry
}

// BuildIndex scans an encoded stream once — a full strict decode — and
// records every sync point. Streams encoded without sync points yield an
// empty (but still valid) index; damaged streams fail, since a seek
// target inside a damaged region could not decode anyway.
func BuildIndex(r io.Reader, prog *program.Program) (*Index, error) {
	d, err := NewDecoder(r, prog)
	if err != nil {
		return nil, err
	}
	idx := &Index{Declared: d.Declared()}
	d.onSync = func(off int64, block uint64) {
		idx.Entries = append(idx.Entries, IndexEntry{Off: off, Block: block})
	}
	for {
		if _, err := d.Next(); err != nil {
			if err == io.EOF {
				return idx, nil
			}
			return nil, err
		}
	}
}

// nearest returns the last sync point at or before block n, or ok=false
// when n precedes every sync point (decode from the header instead).
func (ix *Index) nearest(n uint64) (IndexEntry, bool) {
	i := sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].Block > n })
	if i == 0 {
		return IndexEntry{}, false
	}
	return ix.Entries[i-1], true
}

// IndexPath returns the sidecar path for a trace file: `x.pt` maps to
// `x.ptidx`, anything else gets `.ptidx` appended.
func IndexPath(ptPath string) string {
	if strings.HasSuffix(ptPath, ".pt") {
		return strings.TrimSuffix(ptPath, ".pt") + ".ptidx"
	}
	return ptPath + ".ptidx"
}

// WriteIndexFile persists an index as a sidecar keyed by the trace
// file's content: traceSHA is the SHA-256 of its first traceLen bytes.
// For a complete trace that is the whole file; an incremental producer
// (ripplewatch) may persist an index covering only a verified prefix,
// which a later open extends instead of rebuilding. The write is atomic
// (temp file + rename), so a crash never leaves a half-written sidecar
// under the final name.
//
// Layout: magic, then a payload of trace SHA-256 (32 bytes), uvarint
// trace length, uvarint declared count, uvarint entry count, and
// delta-encoded entries; a SHA-256 of everything before it closes the
// file, making truncation and scribbling detectable.
func WriteIndexFile(path string, idx *Index, traceSHA [32]byte, traceLen int64) error {
	var b bytes.Buffer
	b.WriteString(indexMagic)
	b.Write(traceSHA[:])
	putUvarint(&b, uint64(traceLen))
	putUvarint(&b, idx.Declared)
	putUvarint(&b, uint64(len(idx.Entries)))
	var prevOff int64
	var prevBlock uint64
	for _, e := range idx.Entries {
		if e.Off < prevOff || (prevBlock != 0 && e.Block <= prevBlock) {
			return fmt.Errorf("trace: index entries not in stream order at offset %d", e.Off)
		}
		if e.Off >= traceLen {
			return fmt.Errorf("trace: index entry at offset %d beyond recorded trace length %d", e.Off, traceLen)
		}
		putUvarint(&b, uint64(e.Off-prevOff))
		putUvarint(&b, e.Block-prevBlock)
		prevOff, prevBlock = e.Off, e.Block
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadIndexFile reads and validates a sidecar against the trace file's
// full content hash and length. It returns ErrIndexCorrupt (wrapped) for
// any structural damage, ErrIndexStale when the recorded hash or length
// does not match, and the underlying error (e.g. fs.ErrNotExist) when
// the sidecar cannot be read; callers rebuild on any failure. A sidecar
// covering a verified prefix of a longer trace is also stale to this
// call — an indexed source (FileOptions.Index) additionally tries the
// cheaper extension path before rebuilding.
func LoadIndexFile(path string, traceSHA [32]byte, traceLen int64) (*Index, error) {
	idx, gotSHA, gotLen, err := readIndexSidecar(path)
	if err != nil {
		return nil, err
	}
	if gotSHA != traceSHA || gotLen != traceLen {
		return nil, ErrIndexStale
	}
	return idx, nil
}

// readIndexSidecar reads a sidecar, performing only structural
// validation (magic, checksum, framing): the recorded trace hash and
// prefix length are returned for the caller to judge against the trace
// file it actually has.
func readIndexSidecar(path string) (*Index, [32]byte, int64, error) {
	var gotSHA [32]byte
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, gotSHA, 0, err
	}
	const minLen = len(indexMagic) + 32 + 32
	if len(data) < minLen || string(data[:len(indexMagic)]) != indexMagic {
		return nil, gotSHA, 0, fmt.Errorf("%w: bad magic or truncated (%d bytes)", ErrIndexCorrupt, len(data))
	}
	payload, tail := data[:len(data)-32], data[len(data)-32:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], tail) {
		return nil, gotSHA, 0, fmt.Errorf("%w: checksum mismatch", ErrIndexCorrupt)
	}
	r := bytes.NewReader(payload[len(indexMagic):])
	if _, err := io.ReadFull(r, gotSHA[:]); err != nil {
		return nil, gotSHA, 0, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	}
	traceLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, gotSHA, 0, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	}
	declared, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, gotSHA, 0, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil || count > uint64(r.Len()) { // every entry needs >= 2 bytes
		return nil, gotSHA, 0, fmt.Errorf("%w: implausible entry count %d", ErrIndexCorrupt, count)
	}
	idx := &Index{Declared: declared, Entries: make([]IndexEntry, 0, count)}
	var off, block uint64
	for i := uint64(0); i < count; i++ {
		dOff, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, gotSHA, 0, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
		}
		dBlock, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, gotSHA, 0, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
		}
		off += dOff
		block += dBlock
		if block > declared {
			return nil, gotSHA, 0, fmt.Errorf("%w: entry block %d beyond declared %d", ErrIndexCorrupt, block, declared)
		}
		if int64(off) >= int64(traceLen) {
			return nil, gotSHA, 0, fmt.Errorf("%w: entry offset %d beyond recorded trace length %d", ErrIndexCorrupt, off, traceLen)
		}
		idx.Entries = append(idx.Entries, IndexEntry{Off: int64(off), Block: block})
	}
	if r.Len() != 0 {
		return nil, gotSHA, 0, fmt.Errorf("%w: %d trailing bytes", ErrIndexCorrupt, r.Len())
	}
	return idx, gotSHA, int64(traceLen), nil
}

// ExtendIndex resumes the strict index scan of a trace that has only
// grown since idx was built: the decode restarts at the last recorded
// sync point (or at the header when the index has none) and every new
// sync point is appended. The existing entries are trusted — the caller
// must have verified that the bytes they were built over are unchanged
// (hash of the recorded prefix) before calling. The returned index is a
// new value; idx is not mutated.
func ExtendIndex(ra io.ReaderAt, size int64, prog *program.Program, idx *Index) (*Index, error) {
	if len(idx.Entries) == 0 {
		return BuildIndex(io.NewSectionReader(ra, 0, size), prog)
	}
	last := idx.Entries[len(idx.Entries)-1]
	out := &Index{
		Declared: idx.Declared,
		Entries:  append([]IndexEntry(nil), idx.Entries...),
	}
	d, err := ResumeDecoder(io.NewSectionReader(ra, last.Off, size-last.Off), prog, ResumeSpec{
		Declared: idx.Declared,
		Emitted:  last.Block,
		Off:      last.Off,
	})
	if err != nil {
		return nil, err
	}
	// The resumed decode re-consumes the sync it starts at, so OnSync
	// fires once for the last known entry; only genuinely new offsets are
	// appended.
	d.OnSync(func(off int64, block uint64) {
		if off > last.Off {
			out.Entries = append(out.Entries, IndexEntry{Off: off, Block: block})
		}
	})
	for {
		if _, err := d.Next(); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
	}
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}

// errIndexRecover fails every pass of a source with both Index and
// Recover set (see FileOptions.Index).
var errIndexRecover = errors.New("trace: indexed sources decode strictly; recovery and seeking don't compose")

// openIndexed starts a seekable pass at block 0.
func (s *source) openIndexed() blockseq.Seq {
	idx, err := s.seekIndex()
	if err != nil {
		return &indexedSeq{err: err, done: true}
	}
	seq := &indexedSeq{src: s, idx: idx}
	if err := seq.restart(0); err != nil {
		return &indexedSeq{err: err, done: true}
	}
	return seq
}

// seekIndex returns the file's seek index, building it on first use
// (see FileOptions.Index). Only a built index is kept: a failed build
// is retried by the next pass, like a failed file open.
func (s *source) seekIndex() (*Index, error) {
	if s.rec {
		return nil, errIndexRecover
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx != nil {
		return s.idx, nil
	}
	sha, err := s.h.sha256()
	if err != nil {
		return nil, err
	}
	r, err := s.h.reader()
	if err != nil {
		return nil, err
	}
	size := r.Size()
	sidecar := IndexPath(s.h.path)
	idx := loadOrExtendIndex(sidecar, s.h, size, sha, s.prog)
	if idx == nil {
		if idx, err = BuildIndex(r, s.prog); err != nil {
			return nil, err
		}
		// The sidecar is a cache: failing to persist it (read-only
		// directory, say) costs the next open a rebuild, nothing more.
		_ = WriteIndexFile(sidecar, idx, sha, size)
	}
	s.idx = idx
	return idx, nil
}

// loadOrExtendIndex returns a usable index from the sidecar — loaded
// directly when it covers the whole file, extended when the file only
// grew past it — or nil when the sidecar is missing, corrupt, stale, or
// fails to extend (the caller rebuilds from scratch).
func loadOrExtendIndex(sidecar string, h *fileHandle, size int64, sha [32]byte, prog *program.Program) *Index {
	idx, recSHA, recLen, err := readIndexSidecar(sidecar)
	if err != nil {
		return nil
	}
	if recLen == size && recSHA == sha {
		return idx
	}
	if recLen >= size {
		return nil // shrunk or rewritten in place: stale
	}
	pre, err := h.sha256N(recLen)
	if err != nil || pre != recSHA {
		return nil // the recorded prefix changed: stale
	}
	ext, err := ExtendIndex(h, size, prog, idx)
	if err != nil {
		return nil // e.g. the new suffix does not decode cleanly yet
	}
	_ = WriteIndexFile(sidecar, ext, sha, size)
	return ext
}

// indexedSeq is one seekable pass. It owns a single Decoder reused
// across every restart (a seek may restart at a new sync point many
// times per pass), so steady-state repositioning allocates nothing:
// over a mapped file a restart is a pure Reset onto a subslice; over
// the ReadAt fallback the decoder's read buffer is retained.
type indexedSeq struct {
	src  *source
	idx  *Index
	d    *Decoder
	pos  uint64 // ordinal of the block the next Next returns
	done bool
	err  error
}

func (s *indexedSeq) Next() (program.BlockID, bool) {
	if s.done || s.err != nil {
		return 0, false
	}
	id, err := s.d.Next()
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		s.done = true
		return 0, false
	}
	s.pos++
	s.src.decoded.Add(1)
	return id, true
}

func (s *indexedSeq) Err() error { return s.err }

// restart begins decoding at ordinal 0 (the header) or at a sync entry,
// reusing the pass's decoder.
func (s *indexedSeq) restart(at uint64) error {
	if s.d == nil {
		s.d = &Decoder{prog: s.src.prog, cur: program.NoBlock}
	}
	data, mapped := s.src.wholeInput()
	if at == 0 {
		var err error
		if mapped {
			err = s.d.resetStart(data)
		} else {
			var r io.Reader
			if r, err = s.src.h.reader(); err == nil {
				err = s.d.resetReaderStart(r)
			}
		}
		if err != nil {
			return err
		}
		s.pos, s.done = 0, false
		return nil
	}
	e, ok := s.idx.nearest(at)
	if !ok || e.Block != at {
		return fmt.Errorf("trace: block %d is not a sync point", at)
	}
	spec := ResumeSpec{Declared: s.idx.Declared, Emitted: e.Block, Off: e.Off}
	var err error
	if mapped {
		err = s.d.Reset(data[e.Off:], spec)
	} else {
		var r io.Reader
		if r, err = s.src.h.readerAt(e.Off); err == nil {
			err = s.d.resetReader(r, spec)
		}
	}
	if err != nil {
		return err
	}
	s.pos, s.done = e.Block, false
	return nil
}

// SeekBlock implements blockseq.Seeker: it takes the cheaper of decoding
// forward from the current position and restarting at the nearest sync
// point at or before the target, so a seek never decodes more than one
// sync interval of discarded blocks. Out-of-range targets error without
// moving; a decode failure during the seek surfaces and poisons the
// pass.
func (s *indexedSeq) SeekBlock(n int) error {
	if s.err != nil {
		return s.err
	}
	declared := s.idx.Declared
	if n < 0 || uint64(n) > declared {
		return fmt.Errorf("trace: seek to block %d outside [0, %d]", n, declared)
	}
	target := uint64(n)

	// Cost of plain forward decoding from where the pass already is.
	forward := uint64(1<<63 - 1)
	if !s.done && s.d != nil && target >= s.pos {
		forward = target - s.pos
	}
	// Cost of restarting at the best sync point (or the header).
	start := uint64(0)
	if e, ok := s.idx.nearest(target); ok {
		start = e.Block
	}
	if forward <= target-start {
		return s.skip(forward)
	}
	if err := s.restart(start); err != nil {
		return err
	}
	return s.skip(target - start)
}

// skip discards n blocks, metering them as decode work.
func (s *indexedSeq) skip(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if _, ok := s.Next(); !ok {
			if s.err == nil {
				s.err = fmt.Errorf("trace: stream ended %d blocks short during seek", n-i)
				s.done = true
			}
			return s.err
		}
	}
	return nil
}

// Checkpoint implements blockseq.Checkpointer: the mark is the pass's
// block ordinal — restoring is a seek, which re-decodes at most one sync
// interval.
func (s *indexedSeq) Checkpoint() (blockseq.Mark, error) {
	if s.err != nil {
		return nil, s.err
	}
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], s.pos)
	return blockseq.Mark(buf[:k]), nil
}

// Restore implements blockseq.Checkpointer.
func (s *indexedSeq) Restore(m blockseq.Mark) error {
	v, k := binary.Uvarint(m)
	if k <= 0 || k != len(m) {
		return fmt.Errorf("trace: malformed seek mark (%d bytes)", len(m))
	}
	return s.SeekBlock(int(v))
}
