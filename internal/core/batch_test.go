package core

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

// TestRunBatchUnsignedRunsStayPrivate: two batches of the same unsigned
// runs over different inputs, on one store-backed pool, each compute
// their own results (the second batch's equal configurations are not
// served the first's) and write nothing to the store.
func TestRunBatchUnsignedRunsStayPrivate(t *testing.T) {
	app := catalogApp(t, "kafka")
	dir := t.TempDir()
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Workers: 2, Store: store})
	params := frontend.DefaultParams()
	runs := []Run{
		{Config: TuneConfig{Params: params, Policy: "lru", Prefetcher: "nlp"}},
		{Config: TuneConfig{Params: params, Policy: "srrip"}},
	}
	var batches [2][]frontend.Result
	for input := range batches {
		src := app.Stream(input, 5_000)
		got, err := RunBatch(app.Prog, src, runs, ParallelOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			want, err := RunPlan(app.Prog, src, r.Config, r.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("input %d run %d: batch result differs from its own RunPlan", input, i)
			}
		}
		batches[input] = got
	}
	for i := range runs {
		if reflect.DeepEqual(batches[0][i], batches[1][i]) {
			t.Fatalf("run %d: both inputs simulate alike, so the test cannot tell a shared result", i)
		}
	}
	if st := pool.Stats(); st.Computed != 4 || st.MemHits != 0 || st.StoreHits != 0 {
		t.Errorf("pool stats %+v, want 4 computed, nothing coalesced or from the store", st)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("store holds %d entries (%v), want none", len(entries), err)
	}
}

// TestRunBatchMatchesRunPlan: a batch of FDIP runs, enough to record and
// replay one tape, beside runs without a prefetcher, returns each run's
// RunPlan result exactly. Every FDIP run is in the batch twice, and the
// two share one simulation, so the batch decodes its file source once
// per distinct run plus once for the recording.
func TestRunBatchMatchesRunPlan(t *testing.T) {
	app := catalogApp(t, "kafka")
	tr := app.Trace(0, 20_000)
	path := writeSyncTrace(t, app, tr)
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	var runs []Run
	distinct := map[string]bool{} // the labels name the simulations
	for _, pol := range []string{"lru", "srrip", "hawkeye", "random"} {
		for _, plan := range []*Plan{nil, a.PlanAt(0.45)} {
			for _, pf := range []string{"fdip", "fdip", "none"} {
				label := fmt.Sprintf("%s/%s plan=%t", pol, pf, plan != nil)
				runs = append(runs, Run{Config: TuneConfig{
					Params: frontend.DefaultParams(), Policy: pol, Prefetcher: pf,
					Hints: frontend.HintDemote, WarmupBlocks: 5_000,
				}, Plan: plan, Label: label})
				distinct[label] = true
			}
		}
	}
	src := trace.FileSourceOptions(path, app.Prog, trace.FileOptions{})
	defer src.(io.Closer).Close()
	got, err := RunBatch(app.Prog, src, runs, ParallelOptions{Pool: runner.New(runner.Options{Workers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if n, want := src.(trace.DecodeCounting).DecodedBlocks(), uint64(len(distinct)+1)*uint64(len(tr)); n != want {
		t.Fatalf("the batch decoded %d blocks, want %d: it recorded no FDIP tape", n, want)
	}
	for i, r := range runs {
		want, err := RunPlan(app.Prog, blockseq.SliceSource(tr), r.Config, r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: batch result differs from RunPlan\nbatch:   %+v\nRunPlan: %+v", r.Label, got[i], want)
		}
	}
}

// TestAccessEventsMatchesFrontend: core.AccessEvents yields exactly the
// events of frontend.AccessEvents under options built by hand for the
// same run of a plan, placed in padding and by relayout. The prefetcher
// is TIFS, which learns from misses, so a plan placed in padding moves
// the stream too.
func TestAccessEventsMatchesFrontend(t *testing.T) {
	app := catalogApp(t, "kafka")
	src := blockseq.SliceSource(app.Trace(0, 20_000))
	a, err := Analyze(app.Prog, src, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.45)
	collect := func(es opt.EventSource) []opt.Event {
		t.Helper()
		var evs []opt.Event
		if err := es.Events(func(e opt.Event) bool { evs = append(evs, e); return true }); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	for _, shift := range []bool{false, true} {
		cfg := TuneConfig{
			Params: frontend.DefaultParams(), Policy: "srrip", Prefetcher: "tifs",
			Hints: frontend.HintDemote, WarmupBlocks: 5_000, ShiftLayout: shift, MeasureAccuracy: true,
		}
		target, injections := app.Prog, plan.Injections
		if shift {
			target, injections = plan.Apply(app.Prog), nil
		}
		want := collect(frontend.AccessEvents(cfg.Params, target, src, func() (frontend.Options, error) {
			pol, err := replacement.New("srrip")
			if err != nil {
				return frontend.Options{}, err
			}
			pf, err := prefetch.New("tifs", target)
			return frontend.Options{Policy: pol, Prefetcher: pf, Hints: frontend.HintDemote, WarmupBlocks: 5_000, Injections: injections}, err
		}))
		if got := collect(AccessEvents(app.Prog, src, cfg, plan)); !reflect.DeepEqual(got, want) {
			t.Errorf("shift=%t: %d events, want the hand-built run's %d", shift, len(got), len(want))
		}
		if reflect.DeepEqual(collect(AccessEvents(app.Prog, src, cfg, nil)), want) {
			t.Fatalf("shift=%t: the plan moves no event, so the test cannot tell it was placed", shift)
		}
	}
}
