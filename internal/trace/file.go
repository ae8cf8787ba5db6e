package trace

import (
	"io"
	"os"
	"sync"
	"sync/atomic"

	"ripple/internal/mmap"
)

// fileOpens counts os.Open calls made by trace file sources; tests use
// it to assert that multi-pass consumers reuse one descriptor per file
// instead of churning opens.
var fileOpens atomic.Int64

// FileOpens returns the cumulative number of file opens performed by
// trace file sources in this process.
func FileOpens() int64 { return fileOpens.Load() }

// fileHandle serves every pass over one trace file through a single
// shared os.File: passes read via ReadAt (concurrency-safe), so opening
// a pass costs no file-table churn. The open is lazy and retried — a
// failed open is not cached, preserving the per-pass error semantics
// fault-tolerant consumers rely on (a transiently unreadable file can
// succeed on the next pass).
type fileHandle struct {
	path string

	mu   sync.Mutex
	f    *os.File
	size int64

	// mapped is the whole-file mmap, established lazily by data() and
	// kept for the life of the handle: decode passes hold subslices of
	// it with no close hook (a blockseq pass may simply be abandoned),
	// so unmapping on Close would be a use-after-free hazard. mapErr
	// caches a failed attempt so the ReadAt fallback is chosen once,
	// not retried per pass; tests preset it to force that fallback.
	mapped []byte
	mapErr error
}

// file returns the shared descriptor and its size, opening lazily.
func (h *fileHandle) file() (*os.File, int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fileLocked()
}

func (h *fileHandle) fileLocked() (*os.File, int64, error) {
	if h.f == nil {
		f, err := os.Open(h.path)
		if err != nil {
			return nil, 0, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		h.f, h.size = f, fi.Size()
		fileOpens.Add(1)
	}
	return h.f, h.size, nil
}

// data returns a read-only mmap of the whole file, mapping on first use.
// The mapping is a snapshot of the file's size at that moment: bytes
// appended later are not visible through it (a whole-buffer decode over
// it classifies the cut as ErrTruncatedTail, exactly like a reader that
// hit EOF). On platforms without mmap — or when the map fails — the
// error is cached and callers fall back to the ReadAt path. The mapping
// outlives Close (see the mapped field's contract); a mapping stays
// valid after its descriptor is closed.
func (h *fileHandle) data() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.mapped != nil {
		return h.mapped, nil
	}
	if h.mapErr != nil {
		return nil, h.mapErr
	}
	f, size, err := h.fileLocked()
	if err != nil {
		// An unopenable file is a per-pass error, not a cached one: the
		// next pass may succeed (the fault-tolerance contract).
		return nil, err
	}
	m, err := mmap.Map(f, size)
	if err != nil {
		h.mapErr = err
		return nil, err
	}
	h.mapped = m
	return m, nil
}

// reader returns an independent reader over the whole file. Readers
// from the same handle may be used concurrently.
func (h *fileHandle) reader() (*io.SectionReader, error) {
	f, size, err := h.file()
	if err != nil {
		return nil, err
	}
	return io.NewSectionReader(f, 0, size), nil
}

// Close releases the shared descriptor; a later pass reopens it (or,
// when the file is mapped, keeps decoding the mapping — a mapping stays
// valid after its descriptor closes and is deliberately never unmapped,
// since abandoned passes may still hold slices of it).
func (h *fileHandle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}
