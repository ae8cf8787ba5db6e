package experiment

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/runner"
	"ripple/internal/workload"
)

// Config parameterizes a whole experiment suite run.
type Config struct {
	// Params is the simulated machine (Table II by default).
	Params frontend.Params
	// TraceBlocks is the per-application trace length in executed basic
	// blocks (the paper traces 100M instructions; the default here, 600k
	// blocks ≈ 7M instructions, reproduces the shapes at CI-friendly
	// cost). WarmupBlocks are executed but excluded from measurement.
	TraceBlocks  int
	WarmupBlocks int
	// Apps restricts the suite to a subset of the nine applications.
	Apps []string
	// Thresholds overrides the Ripple tuning sweep.
	Thresholds []float64
	// Log receives progress lines (nil silences them).
	Log io.Writer
	// Workers bounds how many simulation jobs run concurrently; <= 0
	// uses GOMAXPROCS. Every job is deterministic and self-seeded, so
	// results are bit-identical for any worker count.
	Workers int
	// CacheDir, when non-empty, persists every job result in a
	// content-addressed store so repeated and partially-overlapping
	// suite runs across processes are incremental. Empty disables
	// persistence (results are still memoized in-process).
	CacheDir string
}

// DefaultConfig returns the standard suite configuration.
func DefaultConfig() Config {
	return Config{
		Params:       frontend.DefaultParams(),
		TraceBlocks:  600_000,
		WarmupBlocks: 200_000,
		Apps:         workload.Names(),
		Thresholds:   []float64{0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95},
		Log:          os.Stderr,
	}
}

// normalize fills zero-valued fields with their defaults. It is the one
// place default resolution happens: New applies it, and callers
// (cmd/rippleexp, benchmarks) must leave unset fields zero rather than
// re-deriving defaults themselves.
func (c Config) normalize() Config {
	def := DefaultConfig()
	if c.Params.L1I.SizeBytes == 0 {
		c.Params = def.Params
	}
	if c.TraceBlocks == 0 {
		c.TraceBlocks = def.TraceBlocks
	}
	if c.WarmupBlocks == 0 {
		c.WarmupBlocks = c.TraceBlocks / 3
	}
	if len(c.Apps) == 0 {
		c.Apps = def.Apps
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = def.Thresholds
	}
	return c
}

// Suite runs experiments against a shared result cache, so e.g. Fig. 7
// and Fig. 8 (speedup and MPKI of the same configurations) cost one set
// of simulations. Simulations execute as runner jobs: independent cells
// fan out across a worker pool, results are memoized in-process and —
// with CacheDir set — persisted content-addressed on disk, keyed by the
// full run signature (workload-generator version, machine params, trace
// length, warmup, app, policy, prefetcher, thresholds).
type Suite struct {
	cfg  Config
	pool *runner.Pool
	log  io.Writer // serialized; shared with the pool
	base string    // signature prefix shared by every job of this config

	// ext is the extension experiments' application list (see extApps).
	ext []string

	mu   sync.Mutex
	apps map[string]*appState
}

// appState holds the per-application substrate that cannot (or need not)
// be persisted: the built program and the eviction analysis, which
// carries live *program.Program references. Traces are never
// materialized: jobs pull blocks from replayable workload stream
// sources. All fields build lazily and at most once; jobs running on
// different workers share them read-only.
type appState struct {
	model workload.Model

	once sync.Once
	app  *workload.App
	err  error

	aonce    sync.Once
	analysis *core.Analysis
	aerr     error
}

// New builds a suite. Invalid app names surface on first use.
func New(cfg Config) *Suite {
	ext := cfg.Apps
	if len(ext) == 0 {
		ext = extApps
	}
	cfg = cfg.normalize()
	// An unusable store degrades the suite to running without one.
	var store *runner.Store
	if cfg.CacheDir != "" {
		var err error
		if store, err = runner.OpenStore(cfg.CacheDir); err != nil && cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "experiment: result cache disabled: %v\n", err)
		}
	}
	pool := runner.New(runner.Options{Workers: cfg.Workers, Store: store, Log: cfg.Log})
	s := &Suite{
		cfg:  cfg,
		pool: pool,
		log:  pool.LogWriter(),
		ext:  ext,
		apps: make(map[string]*appState),
	}
	s.base = fmt.Sprintf("rexp1|wl=%s|params=%+v|blocks=%d|warmup=%d",
		workload.GeneratorVersion, cfg.Params, cfg.TraceBlocks, cfg.WarmupBlocks)
	return s
}

// Apps returns the application names the suite covers, in figure order.
func (s *Suite) Apps() []string { return s.cfg.Apps }

// Stats reports what the underlying job runner has done so far (jobs
// computed, store hits, coalesced calls, summed simulation wall time).
func (s *Suite) Stats() runner.Stats { return s.pool.Stats() }

func (s *Suite) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// --- job signatures ---------------------------------------------------

func (s *Suite) thSig() string { return fmt.Sprintf("%v", s.cfg.Thresholds) }

func (s *Suite) runSig(app, prefetcher, policy string, accuracy bool) string {
	return fmt.Sprintf("%s|run|app=%s|pf=%s|pol=%s|acc=%t", s.base, app, prefetcher, policy, accuracy)
}

// oracleSig keys oracle results. It names no engine, so result stores
// warmed before the streaming refactor stay valid.
func (s *Suite) oracleSig(app, prefetcher string) string {
	return fmt.Sprintf("%s|oracle|app=%s|pf=%s", s.base, app, prefetcher)
}

func (s *Suite) rippleSig(app, prefetcher, policy string) string {
	return fmt.Sprintf("%s|ripple|th=%s|app=%s|pf=%s|pol=%s", s.base, s.thSig(), app, prefetcher, policy)
}

func (s *Suite) cellSig(exp, key string) string {
	return fmt.Sprintf("%s|cell|th=%s|exp=%s|key=%s", s.base, s.thSig(), exp, key)
}

// warm fans a batch of jobs out across the worker pool before a table
// reads their results one by one; each read is then served from the
// in-process cache.
func (s *Suite) warm(jobs ...runner.Job) error {
	_, err := s.pool.RunAll(jobs)
	return err
}

// --- per-application substrate ----------------------------------------

// state lazily builds the application and its state slot; builds for
// different applications proceed in parallel, each at most once.
func (s *Suite) state(name string) (*appState, error) {
	s.mu.Lock()
	st, ok := s.apps[name]
	if !ok {
		m, known := workload.ByName(name)
		if !known {
			s.mu.Unlock()
			return nil, fmt.Errorf("experiment: unknown application %q", name)
		}
		st = &appState{model: m}
		s.apps[name] = st
	}
	s.mu.Unlock()
	st.once.Do(func() {
		t0 := time.Now()
		st.app, st.err = workload.Build(st.model)
		if st.err == nil {
			s.logf("[%s] built (%d blocks of code) in %v", name, st.app.Prog.NumBlocks(), time.Since(t0).Round(time.Millisecond))
		}
	})
	if st.err != nil {
		return nil, st.err
	}
	return st, nil
}

// source returns the replayable block source for one input
// configuration. Workload streams are deterministic per (app, input,
// seed): every Open replays exactly the blocks the old materialized
// trace held, so persisted result signatures stay valid while the
// suite's steady-state memory drops from O(trace) to O(1).
func (s *Suite) source(st *appState, input int) blockseq.Source {
	return st.app.Stream(input, s.cfg.TraceBlocks)
}

// analysisFor lazily runs Ripple's eviction analysis on the input-#0
// trace. The analysis holds live program references, so it is memoized
// in-process only; jobs that depend on it persist their own outputs.
func (s *Suite) analysisFor(name string) (*core.Analysis, error) {
	st, err := s.state(name)
	if err != nil {
		return nil, err
	}
	st.aonce.Do(func() {
		acfg := core.DefaultAnalysisConfig()
		acfg.L1I = s.cfg.Params.L1I
		t0 := time.Now()
		st.analysis, st.aerr = core.Analyze(st.app.Prog, s.source(st, 0), acfg)
		if st.aerr == nil {
			s.logf("[%s] eviction analysis: %d windows (%v)", name, st.analysis.Windows, time.Since(t0).Round(time.Millisecond))
		}
	})
	return st.analysis, st.aerr
}

// --- simulation cells (runner jobs) -----------------------------------

// runJob simulates one (app, prefetcher, policy) cell on the input-#0
// trace of the unmodified binary.
func (s *Suite) runJob(name, prefetcher, policy string, accuracy bool) runner.Job {
	cost := float64(s.cfg.TraceBlocks)
	if accuracy {
		cost *= 1.5
	}
	label := fmt.Sprintf("run %s %s/%s", name, prefetcher, policy)
	return runner.NewJob(s.runSig(name, prefetcher, policy, accuracy), label, cost,
		func() (*frontend.Result, error) {
			st, err := s.state(name)
			if err != nil {
				return nil, err
			}
			cfg := s.tuneCfg(prefetcher, policy, frontend.HintInvalidate)
			cfg.MeasureAccuracy = accuracy
			t0 := time.Now()
			r, err := core.RunPlan(st.app.Prog, s.source(st, 0), cfg, nil)
			if err != nil {
				return nil, err
			}
			s.logf("[%s] %s/%s: MPKI %.2f, IPC %.3f (%v)", name, prefetcher, policy, r.MPKI(), r.IPC(), time.Since(t0).Round(time.Millisecond))
			return &r, nil
		})
}

// run executes (or fetches) one cell through the runner.
func (s *Suite) run(name, prefetcher, policy string, accuracy bool) (frontend.Result, error) {
	v, err := s.pool.Do(s.runJob(name, prefetcher, policy, accuracy))
	if err != nil {
		return frontend.Result{}, err
	}
	return *(v.(*frontend.Result)), nil
}

// oracleCounts is the persisted outcome of replaying the offline oracle
// replacement modes over the access stream recorded under LRU with one
// prefetcher.
type oracleCounts struct {
	Min       uint64
	DemandMin uint64
	Pollute   uint64
}

// oracleJob evaluates the oracle replacement modes over the access
// stream of an LRU run with one prefetcher. The stream is never
// materialized: the run is replayed through core.AccessEvents as many
// times as the engine needs passes, so the job's memory stays O(1) in the
// trace length.
func (s *Suite) oracleJob(name, prefetcher string) runner.Job {
	label := fmt.Sprintf("oracle %s %s", name, prefetcher)
	return runner.NewJob(s.oracleSig(name, prefetcher), label, 2*float64(s.cfg.TraceBlocks),
		func() (*oracleCounts, error) {
			st, err := s.state(name)
			if err != nil {
				return nil, err
			}
			events := core.AccessEvents(st.app.Prog, s.source(st, 0), s.tuneCfg(prefetcher, "lru", frontend.HintInvalidate), nil)
			modes := []opt.Mode{opt.ModeMIN, opt.ModeDemandMIN, opt.ModePolluteEvict}
			rs, err := opt.SimulateSourceModes(events, s.cfg.Params.L1I, modes, false)
			if err != nil {
				return nil, err
			}
			oc := &oracleCounts{Min: rs[0].DemandMisses, DemandMin: rs[1].DemandMisses, Pollute: rs[2].DemandMisses}
			s.logf("[%s] %s oracles: min=%d demand-min=%d pollute=%d", name, prefetcher, oc.Min, oc.DemandMin, oc.Pollute)
			return oc, nil
		})
}

// oracle runs (or fetches) one oracle cell through the runner.
func (s *Suite) oracle(name, prefetcher string) (*oracleCounts, error) {
	v, err := s.pool.Do(s.oracleJob(name, prefetcher))
	if err != nil {
		return nil, err
	}
	return v.(*oracleCounts), nil
}

// oracleMissCount returns the demand-miss count of one offline oracle
// replacement mode (MIN, Demand-MIN, or pollute-evict) replayed over the
// stream recorded under LRU with the given prefetcher.
func (s *Suite) oracleMissCount(name, prefetcher string, mode opt.Mode) (uint64, error) {
	oc, err := s.oracle(name, prefetcher)
	if err != nil {
		return 0, err
	}
	switch mode {
	case opt.ModeMIN:
		return oc.Min, nil
	case opt.ModeDemandMIN:
		return oc.DemandMin, nil
	case opt.ModePolluteEvict:
		return oc.Pollute, nil
	}
	return 0, fmt.Errorf("experiment: unknown oracle mode %v", mode)
}

// idealReplacementCycles estimates the cycle count of the LRU run had it
// made ideal (Demand-MIN) replacement decisions: same instruction stream,
// ideal misses charged at the run's observed average miss penalty.
func (s *Suite) idealReplacementCycles(name, prefetcher string) (uint64, error) {
	base, err := s.run(name, prefetcher, "lru", false)
	if err != nil {
		return 0, err
	}
	misses, err := s.oracleMissCount(name, prefetcher, opt.ModeDemandMIN)
	if err != nil {
		return 0, err
	}
	return idealCyclesFrom(base, misses), nil
}

// idealCyclesFrom rescales a run's stall cycles to an ideal miss count.
func idealCyclesFrom(base frontend.Result, idealMisses uint64) uint64 {
	observed := base.L1I.DemandMisses + base.LateMisses
	if observed == 0 {
		return base.Cycles
	}
	penalty := float64(base.StallCycles) / float64(observed)
	return base.Cycles - base.StallCycles + uint64(float64(idealMisses)*penalty)
}

// streamID is the stable content identity of one workload stream:
// generator version, model name, input index, and trace length pin the
// exact block sequence every Open replays, so tune jobs keyed by it stay
// hittable across processes (and by other tools tuning the same stream).
func (s *Suite) streamID(model string, input int) string {
	return fmt.Sprintf("wl=%s|app=%s|input=%d|blocks=%d", workload.GeneratorVersion, model, input, s.cfg.TraceBlocks)
}

// tuneOpts is the parallel-tuning substrate for a sweep simulated on one
// workload stream: per-threshold sub-jobs share the suite's worker pool
// (the calling cell drains its own batch when no slot is free, so nested
// fan-out cannot deadlock) and land in the persistent store under the
// stream's identity.
func (s *Suite) tuneOpts(model string, input int) core.ParallelOptions {
	return core.ParallelOptions{Pool: s.pool, SourceID: s.streamID(model, input)}
}

// tuneCfg assembles the core.TuneConfig for one cell.
func (s *Suite) tuneCfg(prefetcher, policy string, hints frontend.HintMode) core.TuneConfig {
	return core.TuneConfig{
		Params:       s.cfg.Params,
		Policy:       policy,
		Prefetcher:   prefetcher,
		Hints:        hints,
		Thresholds:   s.cfg.Thresholds,
		WarmupBlocks: s.cfg.WarmupBlocks,
	}
}

// rippleEval is the persisted outcome of the full Ripple pipeline for
// one (app, prefetcher, policy) cell: the tuned threshold curve, the
// winning plan, and a re-evaluation of that plan with accuracy
// instrumentation.
type rippleEval struct {
	Curve   []core.ThresholdPoint
	BestIdx int
	// BestPlan is the winning injection plan (needed by the ablations
	// that re-execute it under other configurations).
	BestPlan *core.Plan
	// Best is the accuracy-instrumented evaluation of the winning plan
	// (Figs. 9-12).
	Best frontend.Result
	// StaticOv is the static instruction overhead of injection (%).
	StaticOv float64
	// AnalysisWindows is the eviction-window count of the profile the
	// plan was computed from.
	AnalysisWindows int
}

// BestPoint returns the winning curve point.
func (ev *rippleEval) BestPoint() core.ThresholdPoint { return ev.Curve[ev.BestIdx] }

// rippleJob runs the full Ripple pipeline for one cell: analysis,
// threshold tuning, and an accuracy-instrumented evaluation of the
// winning plan.
func (s *Suite) rippleJob(name, prefetcher, policy string) runner.Job {
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+3)
	label := fmt.Sprintf("ripple %s %s/%s", name, prefetcher, policy)
	return runner.NewJob(s.rippleSig(name, prefetcher, policy), label, cost,
		func() (*rippleEval, error) {
			st, err := s.state(name)
			if err != nil {
				return nil, err
			}
			a, err := s.analysisFor(name)
			if err != nil {
				return nil, err
			}
			tcfg := s.tuneCfg(prefetcher, policy, frontend.HintInvalidate)
			t0 := time.Now()
			tune, err := core.TuneParallel(a, s.source(st, 0), tcfg, s.tuneOpts(name, 0))
			if err != nil {
				return nil, err
			}
			// Re-evaluate the winner with accuracy instrumentation for
			// Figs. 9-12.
			tcfg.MeasureAccuracy = true
			best, err := core.RunPlan(st.app.Prog, s.source(st, 0), tcfg, tune.BestPlan)
			if err != nil {
				return nil, err
			}
			ev := &rippleEval{
				Curve:           tune.Curve,
				BestIdx:         tune.Best,
				BestPlan:        tune.BestPlan,
				Best:            best,
				AnalysisWindows: a.Windows,
			}
			injected := tune.BestPlan.ApplyPreservingLayout(st.app.Prog)
			if orig := st.app.Prog.StaticInstrs(); orig > 0 {
				ev.StaticOv = float64(injected.StaticInstrs()-orig) / float64(orig) * 100
			}
			s.logf("[%s] ripple-%s/%s: th=%.2f speedup %.2f%%, coverage %.0f%% (%v)",
				name, policy, prefetcher, ev.BestPoint().Threshold, ev.BestPoint().SpeedupPct,
				best.Coverage()*100, time.Since(t0).Round(time.Second))
			return ev, nil
		})
}

// rippleFor runs (or fetches) the full Ripple pipeline for one cell.
func (s *Suite) rippleFor(name, prefetcher, policy string) (*rippleEval, error) {
	v, err := s.pool.Do(s.rippleJob(name, prefetcher, policy))
	if err != nil {
		return nil, err
	}
	return v.(*rippleEval), nil
}

// cell is one row of a cell experiment: its key, unique within the
// experiment, and the computation of its values.
type cell struct {
	key string
	row func() ([]float64, error)
}

// appCells makes one cell per application, keyed by its name.
func appCells(apps []string, row func(app string) ([]float64, error)) []cell {
	cells := make([]cell, len(apps))
	for i, app := range apps {
		cells[i] = cell{app, func() ([]float64, error) { return row(app) }}
	}
	return cells
}

// cellRows runs one experiment's cells as one batch of persistable jobs
// and returns their rows in cell order. A row may freely call
// s.run/s.rippleFor/s.oracle: nested job requests coalesce through the
// pool and compute inline on the calling worker, so they cannot
// deadlock.
func (s *Suite) cellRows(exp string, cost float64, cells []cell) ([][]float64, error) {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = runner.NewJob(s.cellSig(exp, c.key), exp+" "+c.key, cost,
			func() (*[]float64, error) {
				row, err := c.row()
				if err != nil {
					return nil, err
				}
				return &row, nil
			})
	}
	vals, err := s.pool.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(vals))
	for i, v := range vals {
		rows[i] = *(v.(*[]float64))
	}
	return rows, nil
}

// cellTable fills t with its cells' rows, one per cell, labeled by the
// cell's key and printed with two decimals. The cells are keyed under
// the table's ID.
func (s *Suite) cellTable(t *Table, cost float64, cells []cell) (*Table, error) {
	rows, err := s.cellRows(t.ID, cost, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRowF(c.key, "%.2f", rows[i]...)
	}
	return t, nil
}

// --- warm-up job enumeration ------------------------------------------

// crossJobs enumerates the run jobs of an apps × prefetchers × policies
// cross-product.
func (s *Suite) crossJobs(apps, prefetchers, policies []string) []runner.Job {
	var jobs []runner.Job
	for _, app := range apps {
		for _, pf := range prefetchers {
			for _, pol := range policies {
				jobs = append(jobs, s.runJob(app, pf, pol, false))
			}
		}
	}
	return jobs
}

// oracleJobs enumerates oracle jobs for apps × prefetchers.
func (s *Suite) oracleJobs(apps, prefetchers []string) []runner.Job {
	var jobs []runner.Job
	for _, app := range apps {
		for _, pf := range prefetchers {
			jobs = append(jobs, s.oracleJob(app, pf))
		}
	}
	return jobs
}

// rippleJobs enumerates Ripple pipeline jobs for apps × prefetchers ×
// policies.
func (s *Suite) rippleJobs(apps, prefetchers, policies []string) []runner.Job {
	var jobs []runner.Job
	for _, app := range apps {
		for _, pf := range prefetchers {
			for _, pol := range policies {
				jobs = append(jobs, s.rippleJob(app, pf, pol))
			}
		}
	}
	return jobs
}

// speedupPct converts a cycle pair into percentage speedup.
func speedupPct(baseCycles, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return (float64(baseCycles)/float64(cycles) - 1) * 100
}
