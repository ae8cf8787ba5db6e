package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// The decode benchmarks measure raw trace replay throughput: one full
// pass over an encoded file, reported as blocks/op so
// scripts/bench_replay.sh can derive blocks_per_sec (blocks/op divided
// by ns/op). Three variants bracket the hot path:
//
//	DecodeNextLoop  — plain NewDecoder + per-block Next over a buffered
//	                  reader: the pre-batching baseline shape.
//	DecodeSerial    — a file source forced onto the ReadAt fallback:
//	                  batched decode through the shared descriptor.
//	DecodeMmap      — a file source as opened: batched decode over
//	                  zero-copy slices of the mapping.
//
// The trace is built once per process. RIPPLE_DECODE_BENCH_BLOCKS scales
// it (default 200k blocks, a few hundred KB — CI smoke territory);
// bench_replay.sh raises it for the committed headline numbers.

const decodeBenchSyncEvery = 4096

var decodeBench struct {
	once   sync.Once
	path   string
	prog   *program.Program
	blocks int
	err    error
}

func decodeBenchTrace(b *testing.B) (string, *program.Program, int) {
	decodeBench.once.Do(func() {
		n := 200_000
		if s := os.Getenv("RIPPLE_DECODE_BENCH_BLOCKS"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				decodeBench.err = fmt.Errorf("bad RIPPLE_DECODE_BENCH_BLOCKS %q", s)
				return
			}
			n = v
		}
		app, err := buildFuzzApp()
		if err != nil {
			decodeBench.err = err
			return
		}
		path := filepath.Join(os.TempDir(), fmt.Sprintf("ripple-decode-bench-%d.pt", n))
		f, err := os.Create(path)
		if err != nil {
			decodeBench.err = err
			return
		}
		w := bufio.NewWriterSize(f, 1<<20)
		st, err := EncodeSourceSync(w, app.Prog, app.Stream(0, n), decodeBenchSyncEvery)
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			decodeBench.err = err
			return
		}
		decodeBench.path = path
		decodeBench.prog = app.Prog
		decodeBench.blocks = int(st.Blocks)
	})
	if decodeBench.err != nil {
		b.Fatal(decodeBench.err)
	}
	return decodeBench.path, decodeBench.prog, decodeBench.blocks
}

// BenchmarkDecodeNextLoop drains the trace with the unbatched per-block
// decoder loop over a buffered file reader — the baseline the batched
// and mapped paths are measured against.
func BenchmarkDecodeNextLoop(b *testing.B) {
	path, prog, blocks := decodeBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		d, err := NewDecoder(bufio.NewReaderSize(f, 1<<16), prog)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := d.Next()
			if err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		f.Close()
		if n != blocks {
			b.Fatalf("decoded %d blocks, want %d", n, blocks)
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

func benchDecodeSource(b *testing.B, src blockseq.Source) {
	_, _, blocks := decodeBenchTrace(b)
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := src.Open()
		n := 0
		for {
			_, ok := seq.Next()
			if !ok {
				break
			}
			n++
		}
		if err := seq.Err(); err != nil {
			b.Fatal(err)
		}
		if n != blocks {
			b.Fatalf("decoded %d blocks, want %d", n, blocks)
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// BenchmarkDecodeSerial is one batched pass over the ReadAt fallback
// (the mapping pre-failed, as on a platform without mmap).
func BenchmarkDecodeSerial(b *testing.B) {
	path, prog, _ := decodeBenchTrace(b)
	benchDecodeSource(b, readAtSource(path, prog, FileOptions{}))
}

// BenchmarkDecodeMmap is one batched pass over the file's mapping.
func BenchmarkDecodeMmap(b *testing.B) {
	path, prog, _ := decodeBenchTrace(b)
	benchDecodeSource(b, FileSourceOptions(path, prog, FileOptions{}))
}
