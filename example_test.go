package ripple_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"ripple"
)

// ExampleSimulate runs a short trace of a synthetic data-center app
// through the Table II frontend under LRU.
func ExampleSimulate() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	trace := ripple.SliceSource(app.Trace(0, 20_000))

	pol, _ := ripple.NewPolicy("lru")
	res, _ := ripple.Simulate(ripple.DefaultParams(), app.Prog, trace, ripple.Options{Policy: pol})

	fmt.Println("simulated instructions:", res.Instrs > 1_000)
	fmt.Println("suffers I-cache misses:", res.MPKI() > 1)
	// Output:
	// simulated instructions: true
	// suffers I-cache misses: true
}

// ExampleAnalyze profiles an app and inspects Ripple's eviction analysis.
func ExampleAnalyze() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("tomcat"))
	profile := ripple.SliceSource(app.Trace(0, 60_000))

	analysis, _ := ripple.Analyze(app.Prog, profile, ripple.DefaultAnalysisConfig())
	plan := analysis.PlanAt(0.55)

	fmt.Println("found eviction windows:", analysis.Windows > 0)
	fmt.Println("plan injects hints:", plan.StaticInstructions() > 0)
	fmt.Println("plan covers windows:", plan.WindowsCovered > 0)
	// Output:
	// found eviction windows: true
	// plan injects hints: true
	// plan covers windows: true
}

// ExampleEncodeTrace round-trips a profile through the PT-like codec.
func ExampleEncodeTrace() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("cassandra"))
	trace := ripple.SliceSource(app.Trace(0, 10_000))

	var buf bytes.Buffer
	stats, _ := ripple.EncodeTrace(&buf, app.Prog, trace, 0)
	decoded, _ := ripple.DecodeTrace(&buf, app.Prog)

	fmt.Println("lossless:", len(decoded) == len(trace))
	fmt.Println("compact (under a byte per block):", stats.BitsPerBlock() < 8)
	// Output:
	// lossless: true
	// compact (under a byte per block): true
}

// ExampleOptimizeLayout applies the BOLT/C3-style code layout optimizer
// using the same profile Ripple consumes.
func ExampleOptimizeLayout() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("verilator"))
	trace := ripple.SliceSource(app.Trace(0, 30_000))

	prof, _ := ripple.ProfileLayout(app.Prog, trace)
	optimized, _ := ripple.OptimizeLayout(app.Prog, prof, ripple.DefaultLayoutOptions())

	fmt.Println("same program shape:", optimized.NumBlocks() == app.Prog.NumBlocks())
	fmt.Println("functions reordered:", len(optimized.FuncOrder) == len(optimized.Funcs))
	// Output:
	// same program shape: true
	// functions reordered: true
}

// repeated is a BlockSource defined outside the ripple package: every
// Open replays blocks times over. BlockSeq names what Open returns.
type repeated struct {
	blocks []ripple.BlockID
	times  int
}

func (r repeated) Open() ripple.BlockSeq { return &repeatedSeq{r: r} }

type repeatedSeq struct {
	r    repeated
	next int
}

func (s *repeatedSeq) Next() (ripple.BlockID, bool) {
	if s.next >= len(s.r.blocks)*s.r.times {
		return 0, false
	}
	b := s.r.blocks[s.next%len(s.r.blocks)]
	s.next++
	return b, true
}

func (s *repeatedSeq) Err() error { return nil }

// ExampleBlockSeq feeds the simulator from a custom BlockSource: one
// recorded request replayed three times.
func ExampleBlockSeq() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	src := repeated{blocks: app.Trace(0, 5_000), times: 3}

	pol, _ := ripple.NewPolicy("lru")
	res, _ := ripple.Simulate(ripple.DefaultParams(), app.Prog, src, ripple.Options{Policy: pol})

	fmt.Println("simulated every block three times:", res.Blocks == uint64(3*len(src.blocks)))
	// Output:
	// simulated every block three times: true
}

// ExampleTraceFileSource simulates a trace straight from disk: each pass
// decodes the file again, and the result equals the in-memory run's.
func ExampleTraceFileSource() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	profile := ripple.SliceSource(app.Trace(0, 20_000))

	dir, _ := os.MkdirTemp("", "ripple-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kafka.pt")
	var buf bytes.Buffer
	ripple.EncodeTrace(&buf, app.Prog, profile, 0)
	os.WriteFile(path, buf.Bytes(), 0o644)

	simulate := func(src ripple.BlockSource) ripple.Result {
		pol, _ := ripple.NewPolicy("lru")
		res, _ := ripple.Simulate(ripple.DefaultParams(), app.Prog, src, ripple.Options{Policy: pol})
		return res
	}
	fromFile := simulate(ripple.TraceFileSource(path, app.Prog))

	fmt.Println("decoded every block:", fromFile.Blocks == uint64(len(profile)))
	fmt.Println("same as in memory:", fromFile == simulate(profile))
	// Output:
	// decoded every block: true
	// same as in memory: true
}

// ExampleRecoverTraceFileSource analyzes a damaged trace: the strict
// source fails, while the recovering one skips to the next sync point
// and accounts for every block it lost in Analysis.Coverage.
func ExampleRecoverTraceFileSource() {
	app, _ := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	profile := ripple.SliceSource(app.Trace(0, 40_000))

	dir, _ := os.MkdirTemp("", "ripple-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kafka.pt")
	var buf bytes.Buffer
	ripple.EncodeTrace(&buf, app.Prog, profile, 1_000) // a sync point every ~1000 blocks
	damaged := buf.Bytes()
	for i := len(damaged) / 2; i < len(damaged)/2+64; i++ {
		damaged[i] = 0xff
	}
	os.WriteFile(path, damaged, 0o644)

	_, err := ripple.Analyze(app.Prog, ripple.TraceFileSource(path, app.Prog), ripple.DefaultAnalysisConfig())
	fmt.Println("strict decode fails:", err != nil)

	a, _ := ripple.Analyze(app.Prog, ripple.RecoverTraceFileSource(path, app.Prog), ripple.DefaultAnalysisConfig())
	cov := a.Coverage
	fmt.Println("declared every block:", cov.Declared == uint64(len(profile)))
	fmt.Println("some blocks lost:", cov.Lost > 0)
	fmt.Println("every block accounted for:", cov.Decoded+cov.Lost == cov.Declared)
	// Output:
	// strict decode fails: true
	// declared every block: true
	// some blocks lost: true
	// every block accounted for: true
}
