package ripple_test

import (
	"bytes"
	"fmt"

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
