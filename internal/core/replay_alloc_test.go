package core

import (
	"runtime"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// TestWindowReplayAllocs: replaying a window list allocates a fixed
// handful of per-pass objects (the ring, the pass, its decoder and
// decode batch), however many windows it serves. Guarded here so a
// per-window allocation cannot creep in.
func TestWindowReplayAllocs(t *testing.T) {
	app := replayApp(t)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(t, app, tr)
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
	windows := windowList(blocks)
	run := func() {
		err := replayWindows(src, windows, 256, func(w window, blocks []program.BlockID) {})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the mapping once

	avg := testing.AllocsPerRun(10, run)
	if avg > 12 {
		t.Errorf("replayWindows allocates %.1f times per run, want <= 12", avg)
	}
}

// TestAnalyzeAllocs bounds what one Analyze of a 50k-block kafka trace
// allocates. The counts are deterministic, so the bounds are tight: the
// bytes bound (about 37.9 MB measured) sits below the 58.7 MB the
// analysis allocated with one (line, block) hash map in place of the
// per-line tables, and the allocation count (about 14.2k, mostly tables
// doubling) has less headroom than the trace's 4,455 windows, so one
// allocation per window, let alone per block, fails.
func TestAnalyzeAllocs(t *testing.T) {
	const (
		maxBytes  = 44 << 20
		maxAllocs = 16_000
		runs      = 3
	)
	app := catalogApp(t, "kafka")
	tr := blockseq.SliceSource(app.Trace(0, 50_000))
	run := func() {
		if _, err := Analyze(app.Prog, tr, DefaultAnalysisConfig()); err != nil {
			t.Fatal(err)
		}
	}
	run()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("Analyze: %d B/op, %d allocs/op", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("Analyze allocates %d B per run, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("Analyze allocates %d times per run, want <= %d", allocs, maxAllocs)
	}
}
