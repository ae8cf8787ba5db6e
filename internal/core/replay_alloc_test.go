package core

import (
	"testing"

	"ripple/internal/program"
	"ripple/internal/trace"
)

// TestWindowReplayAllocs locks in the pooled-seek-decoder win: replaying
// a sparse window list through the seek index must stay allocation-free
// per seek in steady state (one reused decoder, restarted over the
// mapping). The bound is ≤ 12 allocs per replayWindows call — the
// handful of fixed per-pass objects — where the pre-pooling decoder
// cold-starts cost 62. Guarded here so it cannot creep back.
func TestWindowReplayAllocs(t *testing.T) {
	app := replayApp(t)
	const blocks = 20_000
	tr := app.Trace(0, blocks)
	path := writeSyncTrace(t, app, tr)
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{Index: true})
	windows := benchWindows(blocks)
	run := func() {
		err := replayWindows(src, windows, 256, func(w window, at func(int32) program.BlockID) {})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the mapping, index state, and pass machinery once

	avg := testing.AllocsPerRun(10, run)
	if avg > 12 {
		t.Errorf("replayWindows allocates %.1f times per run, want <= 12", avg)
	}
}
