//go:build unix

package mmap

import (
	"fmt"
	"os"
	"syscall"
)

// Map maps the first size bytes of f read-only and returns the mapping.
// A zero size returns an empty non-nil slice (mapping zero bytes is an
// error at the syscall level but a perfectly decodable empty stream to
// callers). The mapping is shared: bytes appended to the file beyond
// size are not visible through it, and truncating the file below size
// makes reads beyond the new end fault — callers mapping live files
// must not shrink them, or must use a ReadAt path instead (the tail
// reader does).
func Map(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return []byte{}, nil
	}
	if size < 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("mmap: size %d out of range", size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	return b, nil
}
