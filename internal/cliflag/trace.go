package cliflag

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"

	"ripple/internal/blockseq"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// Trace is the trace input of rippleanalyze and ripplesim: a program
// image and a PT trace recorded against it, decoded strictly, in
// recovery mode, or through the seek index.
type Trace struct {
	ProgPath, PTPath string
	// Recover resynchronizes past damaged trace regions instead of
	// failing (trace.FileOptions.Recover).
	Recover bool
	// Index replays through the .ptidx seek index, built on the first
	// pass when absent or stale (trace.FileOptions.Index).
	Index bool
}

// Register defines -prog, -pt, -recover, and -index on fs, bound to t.
func (t *Trace) Register(fs *flag.FlagSet, progUsage string) {
	fs.StringVar(&t.ProgPath, "prog", "", progUsage)
	fs.StringVar(&t.PTPath, "pt", "", "PT trace from ripplegen (required)")
	fs.BoolVar(&t.Recover, "recover", false, "resynchronize past damaged trace regions instead of failing")
	fs.BoolVar(&t.Index, "index", false, "replay through the .ptidx seek index (built on the fly if absent or stale); conflicts with -recover")
}

// Load reads the program image and opens a streaming source over the
// trace, decoded against it. The trace is never materialized: every
// consumer pass re-decodes the file. With Recover the reporter (the
// source itself) publishes the damage accounting once a pass completes;
// it is nil otherwise. With Index a trace that fails to decode fails the
// first pass, with the decoder's offset-and-kind error.
func (t Trace) Load() (*program.Program, blockseq.Source, trace.Reporting, error) {
	if t.Recover && t.Index {
		// A seek index is built from a strict decode; a damaged trace has
		// no well-defined byte offsets to seek to.
		return nil, nil, nil, errors.New("-index and -recover are mutually exclusive")
	}
	prog, err := LoadProgram(t.ProgPath)
	if err != nil {
		return nil, nil, nil, err
	}
	src := trace.FileSourceOptions(t.PTPath, prog, trace.FileOptions{Recover: t.Recover, Index: t.Index})
	var reporter trace.Reporting
	if t.Recover {
		reporter = src.(trace.Reporting)
	}
	return prog, src, reporter, nil
}

// LoadProgram reads a program image file.
func LoadProgram(path string) (*program.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return program.Load(f)
}

// FileDigest returns the SHA-256 (hex) of a file's content, streamed:
// memory stays constant in the file size.
func FileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
