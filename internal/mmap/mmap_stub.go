//go:build !unix

package mmap

import "os"

// Map reports ErrUnsupported on platforms without mmap.
func Map(f *os.File, size int64) ([]byte, error) { return nil, ErrUnsupported }
