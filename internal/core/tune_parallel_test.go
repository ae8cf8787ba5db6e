package core

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/runner"
)

// serialTune is the sweep TuneParallel runs, as one RunPlan after another
// on the caller's goroutine, each with a live prefetcher.
func serialTune(t *testing.T, a *Analysis, src blockseq.Source, cfg TuneConfig) *TuneResult {
	t.Helper()
	baseline, err := RunPlan(a.Prog, src, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, len(cfg.Thresholds))
	results := make([]frontend.Result, len(cfg.Thresholds))
	for i, th := range cfg.Thresholds {
		plans[i] = a.PlanAt(th)
		if results[i], err = RunPlan(a.Prog, src, cfg, plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	return assembleTune(a, cfg.Thresholds, plans, baseline, results)
}

// TestTuneParallelMatchesSerial: the sweep, without a pool and on a pool
// of 8 workers, must be byte-identical to the serial one across several
// policy/prefetcher combinations, with and without a warmup prefix — same
// Curve, same Best index, same BestPlan.
func TestTuneParallelMatchesSerial(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	combos := []struct {
		name, policy, prefetcher string
		accuracy                 bool
		warmup                   int
	}{
		{"lru/none", "lru", "none", false, 0},
		{"srrip/nlp", "srrip", "nlp", false, 0},
		{"random/fdip", "random", "fdip", true, 0},
		{"lru/none/warmup", "lru", "none", false, len(tr) / 3},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			cfg := TuneConfig{
				Params:          params,
				Policy:          c.policy,
				Prefetcher:      c.prefetcher,
				Thresholds:      []float64{0.1, 0.3, 0.5, 0.9},
				MeasureAccuracy: c.accuracy,
				WarmupBlocks:    c.warmup,
			}
			serial := serialTune(t, a, blockseq.SliceSource(tr), cfg)
			for _, pool := range []*runner.Pool{nil, runner.New(runner.Options{Workers: 8})} {
				par, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, ParallelOptions{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("sweep diverged from serial (pool %v):\nserial: %+v\nparallel: %+v", pool != nil, serial, par)
				}
			}
		})
	}
}

// gateSource proves real fan-out: Open blocks until `need` callers are
// waiting simultaneously. Each tuning job opens the source once and
// sequentially, so `need` blocked Opens can only come from `need` jobs
// that are live at the same time. If the sweep never reaches that
// parallelism, the gate times out, the sweep completes serially, and the
// test fails on Released().
type gateSource struct {
	inner blockseq.Source
	need  int

	mu      sync.Mutex
	waiting int
	release chan struct{}
	once    sync.Once
}

func newGateSource(inner blockseq.Source, need int) *gateSource {
	return &gateSource{inner: inner, need: need, release: make(chan struct{})}
}

func (g *gateSource) Open() blockseq.Seq {
	g.mu.Lock()
	g.waiting++
	if g.waiting >= g.need {
		g.once.Do(func() { close(g.release) })
	}
	g.mu.Unlock()
	select {
	case <-g.release:
	case <-time.After(15 * time.Second):
	}
	g.mu.Lock()
	g.waiting--
	g.mu.Unlock()
	return g.inner.Open()
}

func (g *gateSource) Released() bool {
	select {
	case <-g.release:
		return true
	default:
		return false
	}
}

// TestTuneParallelRunsJobsConcurrently: with 4 workers, at least 4 of the
// sweep's simulations must be in flight at once (this container has one
// CPU, so concurrency is proven by rendezvous, not wall clock). Runs that
// share a simulation wait for it instead of opening the source, so the
// sweep's six thresholds give six distinct plans.
func TestTuneParallelRunsJobsConcurrently(t *testing.T) {
	app := catalogApp(t, "kafka")
	tr := app.Trace(0, 5_000)
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TuneConfig{
		Params:     frontend.DefaultParams(),
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.05, 0.15, 0.35, 0.55, 0.65, 0.75},
	}
	if n := distinctSims(a, cfg.Thresholds); n != len(cfg.Thresholds)+1 {
		t.Fatalf("the sweep needs %d simulations, want one per run (%d)", n, len(cfg.Thresholds)+1)
	}
	gate := newGateSource(blockseq.SliceSource(tr), 4)
	pool := runner.New(runner.Options{Workers: 4})
	done := make(chan error, 1)
	go func() {
		_, err := TuneParallel(a, gate, cfg, ParallelOptions{Pool: pool})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("parallel tune never finished")
	}
	if !gate.Released() {
		t.Fatal("never observed 4 simultaneously running sweep jobs")
	}
}

// distinctSims counts the simulations a sweep over a's plans at
// thresholds needs: the baseline and one per distinct plan. The plans are
// prefixes of one ranked list, so their injected instruction counts tell
// them apart, and a plan that injects nothing is the baseline.
func distinctSims(a *Analysis, thresholds []float64) int {
	static := map[int]bool{0: true}
	for _, th := range thresholds {
		static[a.PlanAt(th).StaticInstructions()] = true
	}
	return len(static)
}

// openCounter counts the passes opened over a block source: a simulation
// opens one, two more to score accuracy, and recording an FDIP tape one.
type openCounter struct {
	blockseq.Source
	opens atomic.Int64
}

func (c *openCounter) Open() blockseq.Seq {
	c.opens.Add(1)
	return c.Source.Open()
}

// passesPerRun returns the passes one RunPlan of cfg opens over src.
func passesPerRun(t *testing.T, prog *program.Program, src blockseq.Source, cfg TuneConfig) int64 {
	t.Helper()
	c := &openCounter{Source: src}
	if _, err := RunPlan(prog, c, cfg, nil); err != nil {
		t.Fatal(err)
	}
	return c.opens.Load()
}

// TestSharedSimulationsMatchSerial: a sweep whose thresholds repeat plans
// (and, above every probability, inject nothing) returns serialTune's
// result exactly while simulating each distinct plan once, unsigned and
// signed. The pool counts every run as computed, and the signed sweep
// still stores each run's own result under its own signature.
func TestSharedSimulationsMatchSerial(t *testing.T) {
	app := catalogApp(t, "kafka")
	tr := app.Trace(0, 5_000)
	a, err := Analyze(app.Prog, blockseq.SliceSource(tr), DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TuneConfig{
		Params:          frontend.DefaultParams(),
		Policy:          "srrip",
		Prefetcher:      "nlp",
		MeasureAccuracy: true,
		WarmupBlocks:    1_000,
		Thresholds:      append(DefaultThresholds(), 1.5),
	}
	runs := len(cfg.Thresholds) + 1
	sims := distinctSims(a, cfg.Thresholds)
	if sims >= runs-2 {
		t.Fatalf("the sweep's %d runs need %d simulations: too few repeats to test sharing", runs, sims)
	}
	want := serialTune(t, a, blockseq.SliceSource(tr), cfg)
	passes := passesPerRun(t, app.Prog, blockseq.SliceSource(tr), cfg)
	for _, signed := range []bool{false, true} {
		dir := t.TempDir()
		store, err := runner.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		pool := runner.New(runner.Options{Workers: 2, Store: store})
		opts := ParallelOptions{Pool: pool}
		if signed {
			opts.SourceID = "kafka-5k"
		}
		src := &openCounter{Source: blockseq.SliceSource(tr)}
		got, err := TuneParallel(a, src, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("signed=%t: the sweep differs from serialTune\ngot:  %+v\nwant: %+v", signed, got, want)
		}
		if n := src.opens.Load(); n != int64(sims)*passes {
			t.Errorf("signed=%t: %d passes, want %d: %d per simulation, %d simulations for %d runs", signed, n, int64(sims)*passes, passes, sims, runs)
		}
		if st := pool.Stats(); st.Computed != int64(runs) || st.MemHits != 0 || st.StoreHits != 0 {
			t.Errorf("signed=%t: pool stats %+v, want all %d runs computed", signed, st, runs)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantEntries := 0 // an unsigned run is never stored
		if signed {
			wantEntries = runs
		}
		if len(entries) != wantEntries {
			t.Errorf("signed=%t: the store holds %d entries, want %d", signed, len(entries), wantEntries)
		}
		if !signed {
			continue
		}
		// Every run's entry holds its own result: a warm rerun reads
		// them all and simulates nothing.
		warm := runner.New(runner.Options{Workers: 2, Store: store})
		src = &openCounter{Source: blockseq.SliceSource(tr)}
		got, err = TuneParallel(a, src, cfg, ParallelOptions{Pool: warm, SourceID: opts.SourceID})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || src.opens.Load() != 0 || warm.Stats().StoreHits != int64(runs) {
			t.Errorf("warm rerun: %d passes, stats %+v, same result %t; want no pass, %d store hits, the same result",
				src.opens.Load(), warm.Stats(), reflect.DeepEqual(got, want), runs)
		}
	}
}

// TestEmptyPlanIsBaseline: a plan that injects nothing simulates as the
// uninjected program, placed in padding or by relayout, which is what
// lets a batch share one simulation between them; the batch runs it once.
func TestEmptyPlanIsBaseline(t *testing.T) {
	app := catalogApp(t, "kafka")
	tr := blockseq.SliceSource(app.Trace(0, 5_000))
	a, err := Analyze(app.Prog, tr, DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := a.PlanAt(1.5)
	if empty.StaticInstructions() != 0 {
		t.Fatal("the plan above every probability injects")
	}
	for _, shift := range []bool{false, true} {
		cfg := TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip", ShiftLayout: shift, MeasureAccuracy: true}
		base, err := RunPlan(app.Prog, tr, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if alone, err := RunPlan(app.Prog, tr, cfg, empty); err != nil || !reflect.DeepEqual(alone, base) {
			t.Fatalf("shift=%t: the empty plan alone simulates differently from the baseline (%v)", shift, err)
		}
		passes := passesPerRun(t, app.Prog, tr, cfg)
		src := &openCounter{Source: tr}
		got, err := RunBatch(app.Prog, src, []Run{{Config: cfg}, {Config: cfg, Plan: empty}}, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], base) || !reflect.DeepEqual(got[1], base) {
			t.Errorf("shift=%t: batch results differ from the baseline", shift)
		}
		if n := src.opens.Load(); n != passes {
			t.Errorf("shift=%t: %d passes, want one simulation's %d", shift, n, passes)
		}
	}
}

// TestSameSimulationReadsEveryConfigField: two runs share a simulation
// only if every TuneConfig field but Thresholds is equal, so a field added
// to TuneConfig must be compared (or this test told why not).
func TestSameSimulationReadsEveryConfigField(t *testing.T) {
	base := Run{Config: TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}}
	if !sameSimulation(base, base) {
		t.Fatal("a run does not simulate like itself")
	}
	typ := reflect.TypeOf(base.Config)
	for i := range typ.NumField() {
		other := base
		f := reflect.ValueOf(&other.Config).Elem().Field(i)
		switch f.Kind() {
		case reflect.Struct:
			f.Set(reflect.Zero(f.Type()))
		case reflect.String:
			f.SetString("other")
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]float64{0.5}))
		default:
			t.Fatalf("TuneConfig.%s: no test value for a %s", typ.Field(i).Name, f.Kind())
		}
		if want := typ.Field(i).Name == "Thresholds"; sameSimulation(base, other) != want {
			t.Errorf("TuneConfig.%s changed: sameSimulation = %t, want %t", typ.Field(i).Name, !want, want)
		}
	}
	plan := &Plan{Injections: map[program.BlockID][]uint64{1: {2}}}
	withPlan := base
	withPlan.Plan = plan
	if sameSimulation(base, withPlan) {
		t.Error("a plan that injects simulates like the baseline")
	}
	same := withPlan
	same.Plan = &Plan{Threshold: 0.5, Injections: map[program.BlockID][]uint64{1: {2}}}
	if !sameSimulation(withPlan, same) {
		t.Error("equal injections at another threshold simulate differently")
	}
	same.Plan = &Plan{Injections: map[program.BlockID][]uint64{1: {3}}}
	if sameSimulation(withPlan, same) {
		t.Error("other victims simulate alike")
	}
}

// TestTuneParallelWarmStoreSkipsSimulation: with a persistent store and a
// stable SourceID, a second pool re-running the identical sweep performs
// ZERO simulations — every job (baseline + each threshold) is served from
// disk, and the result is still byte-identical.
func TestTuneParallelWarmStoreSkipsSimulation(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.1, 0.3, 0.9},
	}
	dir := t.TempDir()
	opts := ParallelOptions{SourceID: "smallTuneSetup/v1"}

	store1, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool1 := runner.New(runner.Options{Workers: 4, Store: store1})
	opts.Pool = pool1
	first, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool1.Stats(); st.Computed != int64(len(cfg.Thresholds))+1 {
		t.Fatalf("cold run computed %d jobs, want %d", st.Computed, len(cfg.Thresholds)+1)
	}

	store2, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := runner.New(runner.Options{Workers: 4, Store: store2})
	opts.Pool = pool2
	second, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := pool2.Stats()
	if st.Computed != 0 {
		t.Fatalf("warm run computed %d jobs, want 0", st.Computed)
	}
	if want := int64(len(cfg.Thresholds)) + 1; st.StoreHits != want {
		t.Fatalf("warm run had %d store hits, want %d", st.StoreHits, want)
	}
	if !reflect.DeepEqual(first.Curve, second.Curve) || first.Best != second.Best ||
		!reflect.DeepEqual(first.Baseline, second.Baseline) ||
		!reflect.DeepEqual(first.BestPlan, second.BestPlan) {
		t.Fatalf("store round trip changed the result:\ncold: %+v\nwarm: %+v", first, second)
	}
}

// TestTuneParallelAnonymousSourceBypassesStore: without a SourceID the
// sweep must not write (or read) the persistent store — an anonymous
// source has no stable identity for a later process to hit, and serving
// one anonymous source's results to another would be wrong.
func TestTuneParallelAnonymousSourceBypassesStore(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{0.1, 0.9},
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		store, err := runner.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		pool := runner.New(runner.Options{Workers: 2, Store: store})
		if _, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, ParallelOptions{Pool: pool}); err != nil {
			t.Fatal(err)
		}
		st := pool.Stats()
		if st.Computed != int64(len(cfg.Thresholds))+1 || st.StoreHits != 0 {
			t.Fatalf("run %d: computed=%d storeHits=%d, want all computed, none from store",
				run, st.Computed, st.StoreHits)
		}
	}
}

// TestTuneBestTieBreakLowestThreshold pins the tie rule: equal speedups
// resolve to the LOWEST threshold, independent of sweep order. Two
// thresholds above every cue probability yield empty (hence identical)
// plans and exactly-equal speedups; swept in DESCENDING order, the old
// loop-order rule would keep the first (higher) threshold.
func TestTuneBestTieBreakLowestThreshold(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{
		Params:     params,
		Policy:     "lru",
		Prefetcher: "none",
		Thresholds: []float64{1.2, 1.1}, // both > any probability: empty plans, equal (zero) speedup
	}
	for _, plan := range []*Plan{a.PlanAt(1.2), a.PlanAt(1.1)} {
		if plan.StaticInstructions() != 0 {
			t.Fatalf("plan@%.1f unexpectedly injects", plan.Threshold)
		}
	}
	res, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[0].SpeedupPct != res.Curve[1].SpeedupPct {
		t.Fatalf("expected an exact speedup tie, got %v vs %v",
			res.Curve[0].SpeedupPct, res.Curve[1].SpeedupPct)
	}
	if res.Best != 1 {
		t.Fatalf("Best = %d (threshold %g), want index 1 (the lower threshold 1.1)",
			res.Best, res.BestPoint().Threshold)
	}
	if res.BestPlan.Threshold != 1.1 {
		t.Fatalf("BestPlan.Threshold = %g, want 1.1", res.BestPlan.Threshold)
	}
}

// TestTuneStoreSignaturesPinned: a sweep with a SourceID stores its
// baseline and each threshold's run under the rtune1 keys that existing
// result stores hold, written out here by hand, so a change to how the
// sweep builds its runs cannot silently orphan those stores.
func TestTuneStoreSignaturesPinned(t *testing.T) {
	prog, tr := smallTuneSetup(t)
	a, err := Analyze(prog, blockseq.SliceSource(tr), acfg(64))
	if err != nil {
		t.Fatal(err)
	}
	params := frontend.DefaultParams()
	params.L1I = oneSet
	cfg := TuneConfig{Params: params, Policy: "srrip", Prefetcher: "nlp", Thresholds: []float64{0.3, 0.9}}
	store, err := runner.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Workers: 2, Store: store})
	if _, err := TuneParallel(a, blockseq.SliceSource(tr), cfg, ParallelOptions{Pool: pool, SourceID: "pin"}); err != nil {
		t.Fatal(err)
	}
	fp, err := prog.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	dg, err := a.PlanAt(0.3).Digest()
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("rtune1|prog=%s|src=pin|params=%+v|pol=srrip|pf=nlp|hints=0|warmup=0|shift=false|acc=false", fp, params)
	for _, sig := range []string{base + "|plan=none", base + "|th=0.3|plan=" + dg} {
		if _, st := store.Lookup(sig); st != runner.StatusHit {
			t.Errorf("no stored result under %s (status %v)", sig, st)
		}
	}
}
