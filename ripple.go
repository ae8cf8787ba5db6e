// Package ripple is the public API of the Ripple reproduction: a
// profile-guided instruction-cache replacement toolkit (Khan et al.,
// ISCA 2021) together with every substrate it needs — synthetic
// data-center workloads, an Intel-PT-like control-flow trace codec, a
// branch-predicted frontend with instruction prefetchers, a three-level
// instruction cache hierarchy with pluggable replacement policies, and
// offline Belady/Demand-MIN oracles.
//
// The pipeline, end to end:
//
//	app, _ := ripple.BuildWorkload(ripple.MustWorkload("finagle-http"))
//	profile := app.Stream(0, 600_000)             // replayable PT-style profile
//	out, _ := ripple.Optimize(app.Prog, profile,  // analyze+tune+inject
//	    ripple.DefaultAnalysisConfig(),
//	    ripple.TuneConfig{Params: ripple.DefaultParams(), Policy: "lru", Prefetcher: "fdip"})
//	fmt.Println(out.Tune.BestPoint().SpeedupPct)  // % IPC gain over LRU
//
// Traces flow through the pipeline as replayable BlockSource iterators:
// multi-pass consumers (the Belady oracles, tuning) re-Open the source
// instead of holding a materialized []BlockID, so steady-state memory is
// O(1) in the trace length. A materialized trace enters as
// SliceSource(tr).
//
// Everything is deterministic: identical seeds produce identical programs,
// traces, analyses, and simulation results.
package ripple

import (
	"io"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/layout"
	"ripple/internal/lbr"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// Re-exported types. Each alias is the canonical definition; see the
// internal package docs for details.
type (
	// Program is a static application image: functions, basic blocks,
	// layout.
	Program = program.Program
	// BlockID identifies a basic block; traces are sequences of BlockIDs.
	BlockID = program.BlockID
	// BlockSource is a replayable iterator factory over executed blocks:
	// every Open replays the identical sequence. All trace-consuming entry
	// points accept one.
	BlockSource = blockseq.Source
	// BlockSeq is one pull-based pass over a BlockSource: Next returns
	// the next block until the pass ends, then Err reports what ended it.
	// It is what BlockSource.Open returns, so code outside this package
	// implements a BlockSource through it.
	BlockSeq = blockseq.Seq
	// SliceSource adapts a materialized []BlockID to a BlockSource.
	SliceSource = blockseq.SliceSource
	// Builder assembles custom Programs block by block.
	Builder = program.Builder

	// Model parameterizes a synthetic data-center application.
	Model = workload.Model
	// App is a built application: program plus dynamic behavior.
	App = workload.App

	// Params is the simulated machine configuration (Table II).
	Params = frontend.Params
	// Options configures one simulation run.
	Options = frontend.Options
	// Result carries a run's measurements (IPC, MPKI, coverage, ...).
	Result = frontend.Result
	// HintMode selects invalidate vs. demote execution of hints.
	HintMode = frontend.HintMode

	// CacheConfig sizes a cache level.
	CacheConfig = cache.Config
	// Policy is the replacement-policy interface; implement it to plug a
	// custom policy into the L1I (Ripple is policy-agnostic). Its OnHit
	// sees demand hits only; a policy that learns from prefetch probes
	// that hit also implements OnPrefetchHit(set, way int, ai AccessInfo).
	Policy = cache.Policy
	// AccessInfo is the metadata a Policy observes per access.
	AccessInfo = cache.AccessInfo
	// Prefetcher is the instruction-prefetch interface. Its
	// OnBlockRetire(bid, next BlockID, dst []uint64) []uint64 returns dst
	// with the lines it prefetches appended, in issue order.
	Prefetcher = prefetch.Prefetcher

	// Analysis is Ripple's eviction analysis over a profile.
	Analysis = core.Analysis
	// AnalysisConfig controls the analysis (target L1I, window cap).
	AnalysisConfig = core.AnalysisConfig
	// Plan is a link-time injection plan (cue block -> victim lines).
	Plan = core.Plan
	// TuneConfig describes the configuration a plan is tuned for.
	TuneConfig = core.TuneConfig
	// TuneResult is a threshold sweep's outcome.
	TuneResult = core.TuneResult
	// Outcome bundles the full pipeline result.
	Outcome = core.Outcome

	// TraceStats reports a PT encode's density.
	TraceStats = trace.Stats
	// SourceCoverage aggregates the decode reports of an analysis's
	// recovering sources (Analysis.Coverage).
	SourceCoverage = core.SourceCoverage

	// AccessEvent is one cache-line access (demand or prefetch) of a
	// simulated run; AccessEventSource streams them.
	AccessEvent = opt.Event
	// EventSource is a replayable stream of access events, the oracle
	// engine's streaming input (see AccessEventSource and
	// IdealMissesSource). Its one method, Events(yield func(AccessEvent)
	// bool) error, runs one pass on the caller's goroutine, handing each
	// event to yield until the stream ends or yield returns false, and
	// returns what ended the pass. Every pass must yield the identical
	// sequence: the engine reads the stream twice.
	EventSource = opt.EventSource

	// LBRConfig parameterizes LBR-style profile sampling.
	LBRConfig = lbr.Config
	// LBRProfile is a sampled (fragment-based) profile.
	LBRProfile = lbr.Profile
)

// Hint execution modes.
const (
	// HintInvalidate drops victims from the L1I (cldemote-like).
	HintInvalidate = frontend.HintInvalidate
	// HintDemote moves victims to the LRU tail instead (Sec. IV variant).
	HintDemote = frontend.HintDemote
)

// DefaultParams returns the paper's Table II machine: 32KiB/8-way L1I,
// 1MiB L2, 10MiB L3, 64B lines, 3/12/36/260-cycle latencies.
func DefaultParams() Params { return frontend.DefaultParams() }

// DefaultAnalysisConfig analyzes against the Table II L1I.
func DefaultAnalysisConfig() AnalysisConfig { return core.DefaultAnalysisConfig() }

// Workloads returns the models of the paper's nine applications.
func Workloads() []Model { return workload.Catalog() }

// WorkloadNames lists the nine application names in figure order.
func WorkloadNames() []string { return workload.Names() }

// Workload returns the catalog model with the given name.
func Workload(name string) (Model, bool) { return workload.ByName(name) }

// MustWorkload returns a catalog model or panics on an unknown name; for
// examples and tests.
func MustWorkload(name string) Model {
	m, ok := workload.ByName(name)
	if !ok {
		panic("ripple: unknown workload " + name)
	}
	return m
}

// BuildWorkload constructs an application from a model (deterministic in
// the model's seed).
func BuildWorkload(m Model) (*App, error) { return workload.Build(m) }

// NewPolicy builds a replacement policy by name: lru, random, srrip,
// drrip, ghrp, ghrp-orig, hawkeye, harmony, ship, trrip (PolicyNames).
func NewPolicy(name string) (Policy, error) { return replacement.New(name) }

// PolicyNames lists the available replacement policies.
func PolicyNames() []string { return replacement.Names() }

// NewPrefetcher builds a prefetcher by name (none, nlp, fdip, tifs;
// PrefetcherNames) for a program.
func NewPrefetcher(name string, prog *Program) (Prefetcher, error) {
	return prefetch.New(name, prog)
}

// PrefetcherNames lists the available prefetchers.
func PrefetcherNames() []string { return prefetch.Names() }

// Simulate drives a basic-block trace through the configured frontend and
// returns its measurements. The simulation streams the source in O(1)
// memory (plus one oracle pre-pass when Options.MeasureAccuracy is set).
func Simulate(p Params, prog *Program, src BlockSource, opts Options) (Result, error) {
	return frontend.Run(p, prog, src, opts)
}

// Speedup returns the percentage speedup of r over baseline.
func Speedup(baseline, r Result) float64 { return frontend.Speedup(baseline, r) }

// Analyze replays the ideal replacement policy over a profiled trace and
// computes Ripple's eviction windows and cue-block probabilities. The
// analysis reads the source once and keeps its block IDs (4 B per block)
// beside O(windows) state.
func Analyze(prog *Program, src BlockSource, cfg AnalysisConfig) (*Analysis, error) {
	return core.Analyze(prog, src, cfg)
}

// Tune sweeps the invalidation threshold and returns the best plan for the
// configured policy and prefetcher: one simulation pass per candidate
// threshold plus the uninjected baseline, two at a time on a private
// one-worker pool (see TuneParallel to choose). Under FDIP the runs
// replay one recorded tape of the prefetches when they are enough to pay
// for its recording pass, and run FDIP live otherwise; the result is the
// same either way.
func Tune(a *Analysis, src BlockSource, cfg TuneConfig) (*TuneResult, error) {
	return core.TuneParallel(a, src, cfg, core.ParallelOptions{})
}

// ParallelOptions configures TuneParallel: how many simulations run
// concurrently and whether their results persist across processes.
type ParallelOptions struct {
	// Workers bounds concurrent simulations; <= 0 uses GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, persists every simulation result in a
	// content-addressed on-disk store: a warm rerun of the same sweep
	// performs zero simulations. Results are keyed by the full run
	// signature, which includes SourceID — with an empty SourceID the
	// store is bypassed (the source has no stable identity to key by).
	CacheDir string
	// SourceID is a stable content identity for the profile source, e.g.
	// a trace file's content hash or "generator version + app + input +
	// length" for a workload stream. Sweeps with equal SourceID (and
	// equal program/config) share cached results; leave it empty for
	// sources without one. Without it the sweep's runs are unsigned:
	// each is simulated, none is coalesced, memoized or stored.
	SourceID string
	// Log receives job-runner progress lines (nil silences them).
	Log io.Writer
	// Retries bounds re-executions of simulations that fail with a
	// transient error (runner.Transient); 0 disables retry.
	Retries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// attempt with deterministic signature-seeded jitter; <= 0 uses the
	// runner default (10ms).
	RetryBackoff time.Duration
}

// resolve builds the execution substrate the core package consumes.
func (o ParallelOptions) resolve() (core.ParallelOptions, error) {
	var store *runner.Store
	if o.CacheDir != "" {
		var err error
		if store, err = runner.OpenStore(o.CacheDir); err != nil {
			return core.ParallelOptions{}, err
		}
	}
	pool := runner.New(runner.Options{
		Workers:      o.Workers,
		Store:        store,
		Log:          o.Log,
		Retries:      o.Retries,
		RetryBackoff: o.RetryBackoff,
	})
	return core.ParallelOptions{Pool: pool, SourceID: o.SourceID}, nil
}

// TuneParallel is Tune with the sweep's simulations (baseline plus
// one per threshold) fanned out across a worker pool and memoized by
// content signature. The result is byte-identical to Tune for any worker
// count.
func TuneParallel(a *Analysis, src BlockSource, cfg TuneConfig, opts ParallelOptions) (*TuneResult, error) {
	copts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	return core.TuneParallel(a, src, cfg, copts)
}

// RunPlan simulates a (possibly nil) plan applied to prog over the trace.
func RunPlan(prog *Program, src BlockSource, cfg TuneConfig, plan *Plan) (Result, error) {
	return core.RunPlan(prog, src, cfg, plan)
}

// Optimize runs the whole Ripple pipeline — analysis, tuning (as Tune
// runs it), injection — over a replayable block source, e.g. a workload
// stream (App.Stream) or an on-disk trace (TraceFileSource).
func Optimize(prog *Program, src BlockSource, acfg AnalysisConfig, tcfg TuneConfig) (*Outcome, error) {
	return core.OptimizeParallel(prog, src, acfg, tcfg, core.ParallelOptions{})
}

// DynamicOverheadPct returns the share of a run's dynamic instructions
// spent on injected hints (Fig. 12).
func DynamicOverheadPct(r Result) float64 { return core.DynamicOverheadPct(r) }

// EncodeTrace writes a block source as a PT-like packet stream in one
// streaming pass (buffering only the packet bytes). A resynchronization
// point lands roughly every syncEvery blocks, bounding how much trace is
// lost past a corrupt region when decoding in recovery mode; 0 emits
// none.
func EncodeTrace(w io.Writer, prog *Program, src BlockSource, syncEvery int) (TraceStats, error) {
	return trace.EncodeSourceSync(w, prog, src, syncEvery)
}

// DecodeTrace reconstructs a basic-block trace from a packet stream.
func DecodeTrace(r io.Reader, prog *Program) ([]BlockID, error) {
	return trace.Decode(r, prog)
}

// TraceFileSource wraps an on-disk PT-like trace file as a replayable
// BlockSource: each pass re-opens and re-decodes the file, so multi-pass
// consumers such as tuning never materialize the trace.
func TraceFileSource(path string, prog *Program) BlockSource {
	return trace.FileSourceOptions(path, prog, trace.FileOptions{})
}

// RecoverTraceFileSource is TraceFileSource in recovery mode: damaged
// stream regions are skipped at sync points instead of failing the
// pass, and Analyze surfaces the aggregate damage accounting as
// Analysis.Coverage.
func RecoverTraceFileSource(path string, prog *Program) BlockSource {
	return trace.FileSourceOptions(path, prog, trace.FileOptions{Recover: true})
}

// AccessEventSource exposes a configured simulation's full demand+
// prefetch access stream as a replayable EventSource: each pass re-runs
// the deterministic simulation with fresh state from newOpts instead of
// materializing the stream. See frontend.AccessEvents.
func AccessEventSource(p Params, prog *Program, src BlockSource, newOpts func() (Options, error)) EventSource {
	return frontend.AccessEvents(p, prog, src, newOpts)
}

// IdealMissesSource replays the prefetch-aware ideal replacement policy
// (Demand-MIN) over a replayable access stream (AccessEventSource) and
// returns the demand misses an ideal cache replacement would incur. It
// holds O(events) index state but never the events themselves.
func IdealMissesSource(src EventSource, l1i CacheConfig) (uint64, error) {
	r, err := opt.SimulateSource(src, l1i, opt.ModeDemandMIN, false)
	if err != nil {
		return 0, err
	}
	return r.DemandMisses, nil
}

// AnalyzeMulti analyzes several independent profiles together (merged
// multi-input profiles, or the fragments of an LBR-style sampler).
func AnalyzeMulti(prog *Program, sources []BlockSource, cfg AnalysisConfig) (*Analysis, error) {
	return core.AnalyzeMulti(prog, sources, cfg)
}

// SampleLBR acquires an LBR-style sampled profile from a ground-truth
// trace: short control-flow fragments captured at a jittered interval,
// the way perf/AutoFDO profile production services. The sampler streams
// the source once, retaining only the captured fragments. Feed
// prof.Sources() to AnalyzeMulti to compare profile sources (the `lbr`
// experiment).
func SampleLBR(src BlockSource, cfg LBRConfig) (*LBRProfile, error) {
	return lbr.Sample(src, cfg)
}

// LayoutProfile aggregates the dynamic counts the code-layout optimizer
// consumes.
type LayoutProfile = layout.Profile

// LayoutOptions selects code-layout transformations.
type LayoutOptions = layout.Options

// DefaultLayoutOptions enables C3 function clustering and hot/cold block
// reordering.
func DefaultLayoutOptions() LayoutOptions { return layout.DefaultOptions() }

// ProfileLayout builds a code-layout profile from an executed trace,
// consumed in one streaming pass.
func ProfileLayout(prog *Program, src BlockSource) (*LayoutProfile, error) {
	return layout.ProfileFromTrace(prog, src)
}

// OptimizeLayout applies BOLT/C3-style profile-guided code layout: hot
// blocks pack first within functions and call chains cluster in the text
// order. IDs are stable, so the same trace (and Ripple's pipeline) can run
// on the optimized image.
func OptimizeLayout(prog *Program, prof *LayoutProfile, opts LayoutOptions) (*Program, error) {
	return layout.Optimize(prog, prof, opts)
}
