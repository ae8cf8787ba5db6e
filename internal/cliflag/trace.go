package cliflag

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// Trace is the trace input of rippleanalyze and ripplesim: a program
// image and a PT trace recorded against it, decoded strictly or in
// recovery mode.
type Trace struct {
	ProgPath, PTPath string
	// Recover resynchronizes past damaged trace regions instead of
	// failing (trace.FileOptions.Recover).
	Recover bool
}

// Register defines -prog, -pt, and -recover on fs, bound to t.
func (t *Trace) Register(fs *flag.FlagSet, progUsage string) {
	fs.StringVar(&t.ProgPath, "prog", "", progUsage)
	fs.StringVar(&t.PTPath, "pt", "", "PT trace from ripplegen (required)")
	fs.BoolVar(&t.Recover, "recover", false, "resynchronize past damaged trace regions instead of failing")
}

// Load reads the program image and opens a streaming source over the
// trace, decoded against it. The trace is never materialized: every
// consumer pass re-decodes the file. With Recover the reporter (the
// source itself) publishes the damage accounting once a pass completes;
// it is nil otherwise.
func (t Trace) Load() (*program.Program, blockseq.Source, trace.Reporting, error) {
	prog, err := LoadProgram(t.ProgPath)
	if err != nil {
		return nil, nil, nil, err
	}
	src := trace.FileSourceOptions(t.PTPath, prog, trace.FileOptions{Recover: t.Recover})
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

// LoadPlan reads an injection plan file for prog, the program it will
// be applied to. Every cue block must be one of prog's blocks, so a plan
// made for another program is an error here rather than a panic in the
// rewriter.
func LoadPlan(path string, prog *program.Program) (*core.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	plan, err := core.LoadPlan(f)
	if err != nil {
		return nil, err
	}
	// Report the lowest offending block, so the message does not depend
	// on map order.
	n := prog.NumBlocks()
	bad, found := program.BlockID(0), false
	for bid := range plan.Injections {
		if (bid < 0 || int(bid) >= n) && (!found || bid < bad) {
			bad, found = bid, true
		}
	}
	if found {
		return nil, fmt.Errorf("plan %s: cue block %d is outside program %q (%d blocks); was the plan made for another program?", path, bad, prog.Name, n)
	}
	return plan, nil
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
