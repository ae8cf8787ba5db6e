package core

import (
	"testing"

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
		err := replayWindows(src, windows, 256, func(w window, at func(int32) program.BlockID) {})
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
