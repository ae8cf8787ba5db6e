package core

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

// tapeBatch returns the batch of a serial tuning sweep over src, which
// records an FDIP tape.
func tapeBatch(t testing.TB, prog *program.Program, src blockseq.Source) *prefetch.Batch {
	t.Helper()
	pfs := prefetch.NewBatch(prog, src, len(DefaultThresholds())+1, 1)
	if pfs == nil {
		t.Fatal("a serial tuning sweep records no FDIP tape")
	}
	return pfs
}

// TestTapeReplayMatchesLive: a run whose prefetcher replays its batch's
// FDIP tape returns the live FDIP run's Result field for field,
// BranchMPKI included. Each app's runs share one batch, as a tuning sweep
// does, over every policy below crossed with both hint modes and warmups
// of 0, mid-trace and the whole trace; the plan (baseline or one of two
// thresholds), ShiftLayout and MeasureAccuracy rotate through them.
func TestTapeReplayMatchesLive(t *testing.T) {
	policies := []string{"lru", "srrip", "hawkeye", "ghrp", "random"}
	for _, name := range []string{"kafka", "drupal", "finagle-http"} {
		app := catalogApp(t, name)
		src := blockseq.SliceSource(app.Trace(0, 20_000))
		a, err := Analyze(app.Prog, src, DefaultAnalysisConfig())
		if err != nil {
			t.Fatal(err)
		}
		plans := []*Plan{nil, a.PlanAt(0.25), a.PlanAt(0.55)}
		warmups := []int{0, 7_777, len(src)}
		pfs := tapeBatch(t, app.Prog, src)
		for pi, pol := range policies {
			for hints := frontend.HintInvalidate; hints <= frontend.HintDemote; hints++ {
				for wi, warmup := range warmups {
					k := pi + int(hints) + wi
					cfg := TuneConfig{
						Params: frontend.DefaultParams(), Policy: pol, Prefetcher: "fdip",
						Hints: hints, WarmupBlocks: warmup,
						ShiftLayout:     k%2 == 1,
						MeasureAccuracy: (pi+wi)%4 == 0,
					}
					plan := plans[(pi+wi)%len(plans)]
					label := fmt.Sprintf("%s %s hints=%d warmup=%d plan=%d shift=%t acc=%t",
						name, pol, hints, warmup, (pi+wi)%len(plans), cfg.ShiftLayout, cfg.MeasureAccuracy)
					live, err := RunPlan(app.Prog, src, cfg, plan)
					if err != nil {
						t.Fatalf("%s: live: %v", label, err)
					}
					replayed, err := runPlan(app.Prog, src, cfg, plan, pfs)
					if err != nil {
						t.Fatalf("%s: replay: %v", label, err)
					}
					if live.BranchMPKI == 0 {
						t.Fatalf("%s: live FDIP mispredicted nothing: the test is vacuous", label)
					}
					if !reflect.DeepEqual(live, replayed) {
						t.Fatalf("%s: replay differs from live FDIP\nlive:   %+v\nreplay: %+v", label, live, replayed)
					}
				}
			}
		}
	}
}

// TestTapeDivergingSourceFails: a replay over a source other than the one
// its tape was recorded over fails the run, whether the source is another
// input's trace, runs longer, ends shorter, or differs in one block whose
// low ID bits, the ones a tape keeps per retire, are the recorded ones.
func TestTapeDivergingSourceFails(t *testing.T) {
	app := catalogApp(t, "kafka")
	src := blockseq.SliceSource(app.Trace(0, 20_000))
	swapped := func(i int) blockseq.Source {
		s := slices.Clone(src)
		s[i] ^= 4
		return s
	}
	cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
	for _, c := range []struct {
		name          string
		recorded, ran blockseq.Source
		want          string
	}{
		{"another input", src, app.Stream(1, 20_000), "leaves its FDIP tape"},
		{"longer source", blockseq.Limit(src, 10_000), src, "runs past its FDIP tape"},
		{"shorter source", src, blockseq.Limit(src, 10_000), "short of its FDIP tape"},
		{"first block swapped", src, swapped(0), "its hash differs"},
		{"last block swapped", src, swapped(len(src) - 1), "its hash differs"},
		{"middle block swapped", src, swapped(len(src) / 2), "leaves its FDIP tape"},
	} {
		res, err := runPlan(app.Prog, c.ran, cfg, nil, tapeBatch(t, app.Prog, c.recorded))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: replay returned %v, %+v; want an error saying %q", c.name, err, res, c.want)
		}
	}
}

// TestTuneRecordsOneTape: a cold LRU+FDIP sweep over a file source decodes
// the trace once per distinct simulation plus once to record the tape,
// without a pool and on a pool that runs 2 jobs at once; a warm rerun
// from the store decodes nothing, so it records no tape either. A pool
// that runs 4 jobs at once on 4 Ps would wait for the recording longer
// than its 3 rounds of simulations save, so it runs FDIP live and decodes
// once per simulation. Two of the ten default thresholds share a plan
// here, so the sweep's 11 jobs run 10 simulations.
func TestTuneRecordsOneTape(t *testing.T) {
	app := catalogApp(t, "kafka")
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
	sims := uint64(distinctSims(a, DefaultThresholds()))
	if sims != 10 {
		t.Fatalf("the sweep needs %d simulations, want the 10 this test pins", sims)
	}
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name    string
		workers int // 0: no pool
		decoded uint64
	}{
		{"no pool", 0, (sims + 1) * uint64(len(tr))},
		{"cold pool", 1, (sims + 1) * uint64(len(tr))},
		{"warm pool", 1, 0},
		{"wide pool", 3, sims * uint64(len(tr))},
	} {
		src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
		opts := ParallelOptions{SourceID: "kafka-20k"}
		if c.workers > 0 {
			store, err := runner.OpenStore(filepath.Join(dir, fmt.Sprint(c.workers)))
			if err != nil {
				t.Fatal(err)
			}
			opts.Pool = runner.New(runner.Options{Workers: c.workers, Store: store})
		}
		if _, err := TuneParallel(a, src, cfg, opts); err != nil {
			t.Fatal(err)
		}
		if n := src.(trace.DecodeCounting).DecodedBlocks(); n != c.decoded {
			t.Errorf("%s: the sweep decoded %d blocks, want %d", c.name, n, c.decoded)
		}
		src.(io.Closer).Close()
	}
}
