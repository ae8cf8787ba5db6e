package trace

import (
	"io"
	"sync"
	"sync/atomic"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// Reporting is implemented by recovery-mode trace sources: after at least
// one full pass, DecodeReport returns the damage accounting of the most
// recent completed pass. ok is false until a pass has completed.
type Reporting interface {
	DecodeReport() (DecodeReport, bool)
}

// DecodeCounting is implemented by trace sources that meter decode work:
// DecodedBlocks returns the total number of blocks decoded across all
// passes of the source so far. Perf tests assert replay-cost bounds
// against it.
type DecodeCounting interface {
	DecodedBlocks() uint64
}

// FileOptions configures a trace source. The zero value decodes
// strictly.
type FileOptions struct {
	// Recover selects recovery mode: damaged packet regions are skipped
	// at PSB sync points instead of erroring, and DecodeReport publishes
	// each completed pass's damage accounting (see Reporting). Passes
	// over a damaged stream are still replayable — recovery decoding is
	// deterministic for a given byte stream.
	Recover bool
}

// FileSourceOptions streams an encoded trace file. Every Open decodes
// the file from the start, so multi-pass consumers replay it instead of
// materializing it. LenHint reads just the stream header, so consumers
// can pre-size buffers without a full pass.
//
// The file is memory-mapped on first use and passes decode zero-copy
// slices of the mapping; when the platform has no mmap or the map fails,
// passes read through ReadAt on the shared descriptor instead, with
// identical results. All passes share one os.File, so re-opening the
// source for multi-pass analysis does not churn file descriptors; Close
// (optional) releases it. A mapping is a fixed-size snapshot: live,
// still-growing traces should be tailed (internal/watch), which reads
// via ReadAt.
func FileSourceOptions(path string, prog *program.Program, o FileOptions) blockseq.Source {
	return &source{prog: prog, rec: o.Recover, h: &fileHandle{path: path}}
}

// BytesSource streams an in-memory encoded trace (tests, benchmarks,
// fuzzing). Decoding indexes the slice directly — the same zero-copy
// path a mapped file uses.
func BytesSource(data []byte, prog *program.Program, o FileOptions) blockseq.Source {
	return &source{prog: prog, rec: o.Recover, data: data}
}

// source is the one trace source: a file (h) or an in-memory stream
// (data), decoded strictly or in recovery mode. It implements
// blockseq.Counter, DecodeCounting, Reporting, and io.Closer.
type source struct {
	prog *program.Program
	rec  bool
	// h serves every pass over a trace file; nil for an in-memory stream.
	h    *fileHandle
	data []byte

	// decoded meters decode work across all passes (see DecodeCounting).
	decoded atomic.Uint64

	// hintOnce guards the cached header read: parallel tuning jobs share
	// one source, so LenHint must be safe under concurrent passes.
	hintOnce sync.Once
	hint     int
	hintOK   bool

	// mu guards the last completed pass's recovery report.
	mu         sync.Mutex
	report     DecodeReport
	haveReport bool
}

// newDecoder opens a decoder at the start of the stream: over the
// in-memory stream or the file's mapping when there is one, else
// through a reader on the shared descriptor.
func (s *source) newDecoder(rec bool) (*Decoder, error) {
	if s.h == nil {
		return newBytesDecoder(s.data, s.prog, rec)
	}
	if data, err := s.h.data(); err == nil {
		return newBytesDecoder(data, s.prog, rec)
	}
	r, err := s.h.reader()
	if err != nil {
		return nil, err
	}
	return newDecoder(r, s.prog, rec)
}

func (s *source) Open() blockseq.Seq {
	d, err := s.newDecoder(s.rec)
	if err != nil {
		return &decodeSeq{err: err}
	}
	return &decodeSeq{d: d, src: s}
}

// LenHint opens the stream just long enough to read the header's
// declared block count. The result is cached after the first call. In
// recovery mode no hint is given: a damaged stream may decode fewer
// blocks than the header declares, and the hint contract requires
// exactness.
func (s *source) LenHint() (int, bool) {
	if s.rec {
		return 0, false
	}
	s.hintOnce.Do(func() {
		if d, err := s.newDecoder(false); err == nil {
			s.hint, s.hintOK = int(d.Declared()), true
		}
	})
	return s.hint, s.hintOK
}

// DecodeReport implements Reporting: the damage accounting of the most
// recently completed recovery pass.
func (s *source) DecodeReport() (DecodeReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report, s.haveReport
}

// DecodedBlocks implements DecodeCounting.
func (s *source) DecodedBlocks() uint64 { return s.decoded.Load() }

// Close releases the shared file handle, when the source has one.
// Later passes reopen it transparently.
func (s *source) Close() error {
	if s.h != nil {
		return s.h.Close()
	}
	return nil
}

// setReport publishes a completed pass's report.
func (s *source) setReport(rep DecodeReport) {
	s.mu.Lock()
	s.report = rep
	s.haveReport = true
	s.mu.Unlock()
}

// decodeBatch sizes the per-pass decode-ahead buffer: Next is served
// from it and the decoder's batched fast path refills it, amortizing
// the per-block dispatch.
const decodeBatch = 512

// decodeSeq is one plain decoding pass over the packet stream.
type decodeSeq struct {
	d   *Decoder
	src *source
	err error

	batch  []program.BlockID
	bi, bn int
	// fin records the decode's terminal error (io.EOF for a clean end)
	// once the decoder is done; blocks already in the batch are served
	// before it surfaces, preserving per-block semantics.
	fin error
}

func (s *decodeSeq) Next() (program.BlockID, bool) {
	for {
		if s.bi < s.bn {
			id := s.batch[s.bi]
			s.bi++
			return id, true
		}
		if s.d == nil {
			return 0, false
		}
		if s.fin != nil {
			if s.fin != io.EOF {
				s.err = s.fin
			}
			if s.src.rec {
				s.src.setReport(s.d.Report())
			}
			s.d = nil
			return 0, false
		}
		if s.batch == nil {
			s.batch = make([]program.BlockID, decodeBatch)
		}
		n, err := s.d.NextBatch(s.batch)
		s.bi, s.bn = 0, n
		if err != nil {
			s.fin = err
		} else if n == 0 {
			s.fin = io.EOF // defensive: NextBatch always progresses or errors
		}
		s.src.decoded.Add(uint64(n))
	}
}

func (s *decodeSeq) Err() error { return s.err }
