package watch

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

// watchCfg is the shared small-scale watcher configuration: tight
// windows and epochs so a few thousand blocks produce several epochs, a
// fixed threshold so each epoch costs two short simulations, and an L1I
// shrunk far below the workload's footprint so the windows actually
// generate cache pressure (and therefore non-empty plans).
func watchCfg(t *testing.T, prog *program.Program, tracePath, outDir string) Config {
	t.Helper()
	params := frontend.DefaultParams()
	params.L1I = cache.Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64}
	return Config{
		Params:          params,
		Prog:            prog,
		TracePath:       tracePath,
		OutDir:          outDir,
		Window:          256,
		Epoch:           256,
		CheckpointEvery: 256,
		Threshold:       0.6,
		Hysteresis:      0.5,
		Stable:          2,
		Tail:            TailConfig{Follow: false},
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

func sameFiles(t *testing.T, want, got map[string][]byte, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d files, want %d", what, len(got), len(want))
	}
	for name, raw := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing %s", what, name)
		}
		if !bytes.Equal(raw, g) {
			t.Fatalf("%s: %s differs", what, name)
		}
	}
}

// TestWatchPublishesRevisions: a complete trace yields at least one
// revision whose record carries consistent coverage, and the final
// checkpoint reflects the whole stream.
func TestWatchPublishesRevisions(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, out)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeComplete {
		t.Fatalf("outcome %s, want complete", res.Outcome)
	}
	if res.Resumed {
		t.Fatal("first run claims to have resumed")
	}
	if res.Total != uint64(len(ref)) {
		t.Fatalf("consumed %d blocks, want %d", res.Total, len(ref))
	}
	if res.Revisions < 1 {
		t.Fatal("no revisions published")
	}
	rev, err := ReadRevision(RevisionPath(out, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rev.Revision != 1 || rev.PlanDigest == "" {
		t.Fatalf("revision record %+v", rev)
	}
	if rev.Coverage.Declared != uint64(len(ref)) || rev.Coverage.Decoded != rev.TotalBlocks {
		t.Fatalf("coverage %+v inconsistent with trace of %d blocks", rev.Coverage, len(ref))
	}
	if rev.Coverage.Regions != 0 || rev.Coverage.WindowDamaged {
		t.Fatalf("clean trace reported damage: %+v", rev.Coverage)
	}

	// A second run over the already-consumed stream resumes from the
	// final checkpoint and immediately completes without republishing.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Outcome != OutcomeComplete || res2.Total != res.Total {
		t.Fatalf("second run %+v, want resumed complete at %d", res2, res.Total)
	}
	if res2.Revisions != res.Revisions {
		t.Fatalf("second run republished: %d revisions, want %d", res2.Revisions, res.Revisions)
	}
}

// TestWatchRestartEquivalence: a watcher stopped (MaxBlocks pause) at
// arbitrary points and restarted publishes the byte-identical revision
// files of a watcher that never stopped — the checkpointed state fully
// determines the replay.
func TestWatchRestartEquivalence(t *testing.T) {
	prog, ref, data := twoPhaseTrace(t)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)

	refOut := filepath.Join(dir, "ref")
	if err := os.MkdirAll(refOut, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, refOut)
	cfg.StatePath = filepath.Join(dir, "ref.ptwatch")
	// Eager hysteresis: any differing epoch winner publishes, so the run
	// produces several revision files for the byte comparison.
	cfg.Hysteresis = 1e-9
	cfg.Stable = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Revisions < 2 {
		t.Fatalf("reference run published %d revisions; fixture too small to test restarts", want.Revisions)
	}
	wantFiles := readDir(t, refOut)

	// Stop points deliberately off the epoch/checkpoint grid.
	stops := []uint64{1, 100, 256, 300, 777, 1000, 1500, uint64(len(ref)) - 1}
	gotOut := filepath.Join(dir, "got")
	if err := os.MkdirAll(gotOut, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg2 := watchCfg(t, prog, path, gotOut)
	cfg2.StatePath = filepath.Join(dir, "got.ptwatch")
	cfg2.Hysteresis = 1e-9
	cfg2.Stable = 1
	for _, stop := range stops {
		cfg2.MaxBlocks = stop
		res, err := Run(cfg2)
		if err != nil {
			t.Fatalf("run to %d: %v", stop, err)
		}
		if res.Outcome != OutcomePaused || res.Total != stop {
			t.Fatalf("run to %d: %+v", stop, res)
		}
	}
	cfg2.MaxBlocks = 0
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeComplete || res.Total != want.Total {
		t.Fatalf("final run %+v, want complete at %d", res, want.Total)
	}
	if res.Revisions != want.Revisions || res.Epochs != want.Epochs {
		t.Fatalf("restarted run: %d revisions %d epochs, want %d and %d",
			res.Revisions, res.Epochs, want.Revisions, want.Epochs)
	}
	sameFiles(t, wantFiles, readDir(t, gotOut), "restarted revisions")
}

// twoPhaseTrace is a trace whose request mix shifts mid-stream, so epoch
// winners change and a run publishes more than one revision.
func twoPhaseTrace(t *testing.T) (*program.Program, []program.BlockID, []byte) {
	t.Helper()
	app := tinyApp(t)
	ref := append(app.Trace(0, 1500), app.Trace(9, 1500)...)
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(ref), 128); err != nil {
		t.Fatal(err)
	}
	return app.Prog, ref, buf.Bytes()
}

// TestResumeParentWindowCheckpoint: testdata/parent-window.ptwatch was
// written by a watcher that saved its whole window, 486 blocks of a
// 256-block W, paused at block 1000 of twoPhaseTrace with watchCfg and
// eager hysteresis. A watcher resumed from it publishes the revisions a
// run that never stopped publishes after that point, byte for byte. A
// checkpoint written at the same point now saves the last W blocks only.
func TestResumeParentWindowCheckpoint(t *testing.T) {
	prog, _, data := twoPhaseTrace(t)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	eager := func(name string) Config {
		out := filepath.Join(dir, name)
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg := watchCfg(t, prog, path, out)
		cfg.StatePath = filepath.Join(dir, name+".ptwatch")
		cfg.Hysteresis = 1e-9
		cfg.Stable = 1
		return cfg
	}
	refCfg := eager("ref")
	want, err := Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := readDir(t, refCfg.OutDir)

	parent, err := os.ReadFile(filepath.Join("testdata", "parent-window.ptwatch"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := eager("resumed")
	if err := os.WriteFile(cfg.StatePath, parent, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1000 || len(st.Window) <= cfg.Window {
		t.Fatalf("the parent checkpoint holds %d blocks at block %d; the test needs more than W=%d at 1000",
			len(st.Window), st.Total, cfg.Window)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resumed || got.Total != want.Total || got.Revisions != want.Revisions || got.Epochs != want.Epochs {
		t.Fatalf("resumed run %+v, want a resumed run ending like %+v", got, want)
	}
	if got.Revisions <= st.Revision {
		t.Fatalf("the resumed run published nothing after revision %d: fixture too small", st.Revision)
	}
	for n := 1; n <= st.Revision; n++ { // published before the checkpoint
		delete(wantFiles, filepath.Base(RevisionPath("", n)))
	}
	sameFiles(t, wantFiles, readDir(t, cfg.OutDir), "revisions resumed from the parent checkpoint")

	now := eager("now")
	now.MaxBlocks = st.Total
	if _, err := Run(now); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadState(now.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh.Window, st.Window[len(st.Window)-now.Window:]) {
		t.Fatalf("a checkpoint at block %d saves %d blocks, want the parent's last %d", st.Total, len(fresh.Window), now.Window)
	}
}

// TestWatchStateStale: regenerating the trace under the same path
// invalidates the checkpoint (prefix hash mismatch) and the watcher
// starts fresh instead of resuming into a foreign stream.
func TestWatchStateStale(t *testing.T) {
	prog, _, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, out)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Regenerate: a different input's trace under the same path.
	app := tinyApp(t)
	tr2 := app.Trace(1, 3000)
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, prog, blockseq.SliceSource(tr2), 128); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed {
		t.Fatal("watcher resumed a checkpoint into a regenerated trace")
	}
	if res.Outcome != OutcomeComplete || res.Total != uint64(len(tr2)) {
		t.Fatalf("fresh run over regenerated trace: %+v, want complete at %d", res, len(tr2))
	}
}

// TestWatchKeepsNoRuns: a watcher on a store-backed pool publishes the
// revision files of one on a store-less pool, yet writes no store entry
// and coalesces nothing: each epoch's runs are unsigned, so the pool runs
// them and keeps none.
func TestWatchKeepsNoRuns(t *testing.T) {
	prog, _, data := makeTrace(t, 2000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	storeDir := filepath.Join(dir, "store")

	run := func(name string, store *runner.Store) (Result, runner.Stats, map[string][]byte) {
		t.Helper()
		out := filepath.Join(dir, name)
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg := watchCfg(t, prog, path, out)
		cfg.StatePath = filepath.Join(dir, name+".ptwatch")
		cfg.Pool = runner.New(runner.Options{Store: store})
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, cfg.Pool.Stats(), readDir(t, out)
	}

	want, _, wantFiles := run("local", nil)
	store, err := runner.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, gotFiles := run("stored", store)
	if got.Revisions != want.Revisions || got.Total != want.Total {
		t.Fatalf("store-backed run %+v, local run %+v", got, want)
	}
	sameFiles(t, wantFiles, gotFiles, "store-backed revisions")
	if stats.Computed == 0 || stats.MemHits != 0 || stats.StoreHits != 0 {
		t.Fatalf("store-backed pool stats %+v, want runs computed and none coalesced or stored", stats)
	}
	if entries := readDir(t, storeDir); len(entries) != 0 {
		t.Fatalf("the store holds %d entries, want none", len(entries))
	}
}

// TestWatchHysteresisProperty drives the hysteresis state machine with
// synthetic epoch outcomes: an oscillating workload (plans alternating
// every epoch) publishes exactly one revision no matter how long it
// oscillates, while a persistent shift publishes the second revision
// after exactly Stable epochs.
func TestWatchHysteresisProperty(t *testing.T) {
	planA := &core.Plan{Program: "p", Threshold: 0.6, Injections: map[program.BlockID][]uint64{1: {10}}}
	planB := &core.Plan{Program: "p", Threshold: 0.6, Injections: map[program.BlockID][]uint64{2: {20}}}
	tuned := func(plan *core.Plan, speedup float64) *core.TuneResult {
		return &core.TuneResult{
			Curve:    []core.ThresholdPoint{{Threshold: plan.Threshold, SpeedupPct: speedup}},
			Best:     0,
			BestPlan: plan,
		}
	}
	newW := func(t *testing.T, stable int) *watcher {
		t.Helper()
		out := t.TempDir()
		cfg, err := Config{
			Prog: &program.Program{}, TracePath: "x", OutDir: out,
			Hysteresis: 0.5, Stable: stable,
		}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		return &watcher{cfg: cfg, st: &State{}, seq: &TailSeq{}}
	}

	t.Run("oscillation-suppressed", func(t *testing.T) {
		for _, stable := range []int{2, 3, 5} {
			w := newW(t, stable)
			for epoch := 0; epoch < 40; epoch++ {
				w.st.Epoch++
				var tr *core.TuneResult
				if epoch%2 == 0 {
					tr = tuned(planA, 3.0)
				} else {
					tr = tuned(planB, 5.0) // shift 2.0 >= hysteresis, but never stable
				}
				if err := w.consider(tr); err != nil {
					t.Fatal(err)
				}
			}
			if w.st.Revision != 1 {
				t.Fatalf("stable=%d: oscillating workload published %d revisions, want 1", stable, w.st.Revision)
			}
		}
	})

	t.Run("persistent-shift-publishes", func(t *testing.T) {
		for _, stable := range []int{1, 2, 4} {
			w := newW(t, stable)
			w.st.Epoch++
			if err := w.consider(tuned(planA, 3.0)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < stable; i++ {
				if w.st.Revision != 1 {
					t.Fatalf("stable=%d: revision %d after %d shifted epochs, want 1", stable, w.st.Revision, i)
				}
				w.st.Epoch++
				if err := w.consider(tuned(planB, 5.0)); err != nil {
					t.Fatal(err)
				}
			}
			if w.st.Revision != 2 {
				t.Fatalf("stable=%d: revision %d after %d shifted epochs, want 2", stable, w.st.Revision, stable)
			}
			if _, err := os.Stat(RevisionPath(w.cfg.OutDir, 2)); err != nil {
				t.Fatalf("stable=%d: revision 2 not written: %v", stable, err)
			}
		}
	})

	t.Run("insignificant-shift-suppressed", func(t *testing.T) {
		w := newW(t, 2)
		w.st.Epoch++
		if err := w.consider(tuned(planA, 3.0)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			w.st.Epoch++
			if err := w.consider(tuned(planB, 3.2)); err != nil { // 0.2 < hysteresis
				t.Fatal(err)
			}
		}
		if w.st.Revision != 1 {
			t.Fatalf("insignificant shift published %d revisions, want 1", w.st.Revision)
		}
	})

	t.Run("drift-rebaselines", func(t *testing.T) {
		// The published plan's own score drifting must re-anchor the
		// baseline: +0.3 per epoch on plan A never triggers, and a later
		// B candidate is measured against the drifted score, not the
		// original.
		w := newW(t, 1)
		w.st.Epoch++
		if err := w.consider(tuned(planA, 3.0)); err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{3.3, 3.6, 3.9, 4.2} {
			w.st.Epoch++
			if err := w.consider(tuned(planA, s)); err != nil {
				t.Fatal(err)
			}
		}
		if w.st.Revision != 1 {
			t.Fatalf("drifting published plan triggered %d revisions, want 1", w.st.Revision)
		}
		w.st.Epoch++
		if err := w.consider(tuned(planB, 4.3)); err != nil { // 0.1 off the drifted baseline
			t.Fatal(err)
		}
		if w.st.Revision != 1 {
			t.Fatalf("B at the drifted baseline published revision %d", w.st.Revision)
		}
	})
}

// TestWatchCanceled: closing Tail.Done mid-run checkpoints and returns
// OutcomeCanceled; the next run resumes from that checkpoint.
func TestWatchCanceled(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	// Withhold the stream's tail so the watcher blocks at the live edge.
	path := writeFile(t, dir, "trace.pt", data[:2*len(data)/3])
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	cfg := watchCfg(t, prog, path, out)
	cfg.Tail = TailConfig{Follow: true, Poll: time.Millisecond, Done: done}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCanceled {
		t.Fatalf("outcome %s, want canceled", res.Outcome)
	}
	if res.Total == 0 || res.Total >= uint64(len(ref)) {
		t.Fatalf("canceled at %d of %d blocks", res.Total, len(ref))
	}

	// Finish the stream and resume to completion.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[2*len(data)/3:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg.Tail = TailConfig{Follow: false}
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Outcome != OutcomeComplete || res2.Total != uint64(len(ref)) {
		t.Fatalf("resumed run %+v, want complete at %d", res2, len(ref))
	}
}

// TestStateRoundtrip pins the checkpoint sidecar format: save/load
// round-trips, and every corruption (magic, body, trailer) reports
// ErrStateCorrupt while staleness reports ErrStateStale.
func TestStateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeFile(t, dir, "trace.pt", []byte("0123456789abcdef"))
	sum, err := hashPrefix(tracePath, 16)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{
		PrefixLen: 16, PrefixSHA: sum,
		// Mark: version 1, header flag, anchor at the stream start, 40
		// blocks + 2 skipped of 100 declared — the position Total names.
		Declared: 100, Mark: []byte{1, 2, 0, 40, 2, 100}, Total: 42,
		Window: []program.BlockID{7, 8, 9}, Epoch: 3, Revision: 2,
		PublishedScore: 1.5, PublishedHash: "abc", Pending: 1,
		DamageEver: true, LastDamageTotal: 40,
	}
	path := filepath.Join(dir, "trace.ptwatch")
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != st.Total || got.Revision != st.Revision || got.PublishedHash != st.PublishedHash ||
		!bytes.Equal(got.Mark, st.Mark) || len(got.Window) != 3 || got.PrefixSHA != st.PrefixSHA {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if err := got.Validate(tracePath); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	// A mark that disagrees with its own state is corrupt, whatever the
	// trace holds: resuming it would misplace the pass.
	for name, mark := range map[string][]byte{
		"position":           tailMark{flags: markFlagHeader, anchorEmitted: 40, skip: 3, declared: 100}.encode(),
		"declared":           tailMark{flags: markFlagHeader, anchorEmitted: 40, skip: 2, declared: 42}.encode(),
		"anchor-past-prefix": tailMark{flags: markFlagHeader, anchorOff: 17, anchorEmitted: 40, skip: 2, declared: 100}.encode(),
		"unknown-flag":       tailMark{flags: markFlagHeader | 1<<2, anchorEmitted: 40, skip: 2, declared: 100}.encode(),
		"unparsable":         {1, 2, 3},
	} {
		bad := *got
		bad.Mark = mark
		if err := bad.Validate(tracePath); !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("%s mark: %v, want ErrStateCorrupt", name, err)
		}
	}
	if err := new(TailSeq).Restore(tailMark{flags: markFlagHeader | 1<<2, declared: 100}.encode()); err == nil {
		t.Fatal("Restore accepted a mark with an unknown flag bit")
	}

	// Staleness: the trace prefix changed, or the file shrank.
	if err := os.WriteFile(tracePath, []byte("XXXX56789abcdef!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(tracePath); !errors.Is(err, ErrStateStale) {
		t.Fatalf("changed prefix: %v, want ErrStateStale", err)
	}
	if err := os.WriteFile(tracePath, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(tracePath); !errors.Is(err, ErrStateStale) {
		t.Fatalf("shrunk trace: %v, want ErrStateStale", err)
	}

	// Corruption: flip a body byte, truncate the trailer, scribble magic.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"flipped-body":   flipByte(raw, len(raw)/2),
		"cut-trailer":    raw[:len(raw)-8],
		"scribble-magic": flipByte(raw, 0),
		"empty":          {},
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadState(p); !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("%s: %v, want ErrStateCorrupt", name, err)
		}
	}
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0xff
	return out
}
