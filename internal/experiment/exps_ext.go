package experiment

import (
	"fmt"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/layout"
	"ripple/internal/lbr"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// extApps is the representative subset the extension experiments use
// when the suite was given no application list (one JVM service, one
// HHVM/JIT app, the generated-code outlier).
var extApps = []string{"finagle-http", "drupal", "verilator"}

// extApps returns the extension experiments' applications: the list the
// suite was given, else the representative subset.
func (s *Suite) extApps() []string { return s.ext }

// archGeoms are the I-cache geometries of the Arch experiment.
var archGeoms = []struct {
	name string
	cfg  cache.Config
}{
	{"16KB/4w", cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64}},
	{"32KB/8w", cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}},
	{"64KB/8w", cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}},
}

// archRow tunes one application against one plan geometry and evaluates
// the plan on every run geometry.
func (s *Suite) archRow(app string, planIdx int) ([]float64, error) {
	planGeo := archGeoms[planIdx]
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	tr := s.source(st, 0)
	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = planGeo.cfg
	a, err := core.Analyze(st.app.Prog, tr, acfg)
	if err != nil {
		return nil, err
	}
	tuneParams := s.cfg.Params
	tuneParams.L1I = planGeo.cfg
	tcfg := core.TuneConfig{
		Params:       tuneParams,
		Policy:       "lru",
		Prefetcher:   "none",
		Thresholds:   s.cfg.Thresholds,
		WarmupBlocks: s.cfg.WarmupBlocks,
	}
	tuned, err := core.TuneParallel(a, tr, tcfg, s.tuneOpts(app, 0))
	if err != nil {
		return nil, err
	}
	row := make([]float64, 0, len(archGeoms))
	for _, runGeo := range archGeoms {
		runParams := s.cfg.Params
		runParams.L1I = runGeo.cfg
		rcfg := tcfg
		rcfg.Params = runParams
		base, err := core.RunPlan(st.app.Prog, tr, rcfg, nil)
		if err != nil {
			return nil, err
		}
		res, err := core.RunPlan(st.app.Prog, tr, rcfg, tuned.BestPlan)
		if err != nil {
			return nil, err
		}
		row = append(row, speedupPct(base.Cycles, res.Cycles))
	}
	s.logf("[%s] arch %s done", app, planGeo.name)
	return row, nil
}

// Arch reproduces the Sec. V discussion: Ripple generates binaries per
// target I-cache geometry. For each application the plan is tuned against
// three geometries; each plan is then evaluated on every geometry. The
// diagonal (matched target) should dominate its column — running a binary
// optimized for the wrong cache forfeits most of the gain.
func (s *Suite) Arch() (*Table, error) {
	var cells []cell
	for _, app := range s.extApps() {
		for i, planGeo := range archGeoms {
			cells = append(cells, cell{fmt.Sprintf("%s@%s", app, planGeo.name),
				func() ([]float64, error) { return s.archRow(app, i) }})
		}
	}
	t := NewTable("arch", "Per-target-architecture tuning: plan geometry vs run geometry (% speedup over LRU, no prefetch)",
		"app/plan-for", "run@16KB/4w%", "run@32KB/8w%", "run@64KB/8w%")
	t.Note = "Sec. V: binaries are optimized per I-cache geometry; mismatched targets lose gain"
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+2*len(archGeoms))
	return s.cellTable(t, cost, cells)
}

// mergedRow evaluates one application's single-input vs merged-profile
// plans on the unseen inputs.
func (s *Suite) mergedRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "fdip", "lru")
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("fdip", "lru", frontend.HintInvalidate)
	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = s.cfg.Params.L1I
	multi, err := core.AnalyzeMulti(st.app.Prog,
		[]blockseq.Source{s.source(st, 0), s.source(st, 1)}, acfg)
	if err != nil {
		return nil, err
	}
	mergedTune, err := core.TuneParallel(multi, s.source(st, 0), tcfg, s.tuneOpts(app, 0))
	if err != nil {
		return nil, err
	}
	var single, merged float64
	for input := 2; input <= 3; input++ {
		tr := s.source(st, input)
		base, err := core.RunPlan(st.app.Prog, tr, tcfg, nil)
		if err != nil {
			return nil, err
		}
		sr, err := core.RunPlan(st.app.Prog, tr, tcfg, ev.BestPlan)
		if err != nil {
			return nil, err
		}
		mr, err := core.RunPlan(st.app.Prog, tr, tcfg, mergedTune.BestPlan)
		if err != nil {
			return nil, err
		}
		single += speedupPct(base.Cycles, sr.Cycles) / 2
		merged += speedupPct(base.Cycles, mr.Cycles) / 2
	}
	s.logf("[%s] merged done", app)
	return []float64{single, merged}, nil
}

// Merged extends Fig. 13: a plan tuned on the union of input #0 and #1
// profiles, evaluated on unseen inputs #2 and #3, against the single-input
// plan. Merged profiles should generalize at least as well.
func (s *Suite) Merged() (*Table, error) {
	t := NewTable("merged", "Profile merging: plan from input #0 vs inputs {#0,#1}, evaluated on #2/#3 (FDIP+LRU, % speedup)",
		"application", "single#0%", "merged#0+1%").WithMean()
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+8)
	return s.cellTable(t, cost, appCells(s.extApps(), s.mergedRow))
}

// lbrRow compares one application's profile sources.
func (s *Suite) lbrRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	tr := s.source(st, 0)
	ev, err := s.rippleFor(app, "none", "lru")
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)
	sampled := func(cfg lbr.Config) (*core.TuneResult, int, error) {
		prof, err := lbr.Sample(tr, cfg)
		if err != nil {
			return nil, 0, err
		}
		acfg := core.DefaultAnalysisConfig()
		acfg.L1I = s.cfg.Params.L1I
		la, err := core.AnalyzeMulti(st.app.Prog, prof.Sources(), acfg)
		if err != nil {
			return nil, 0, err
		}
		tuned, err := core.TuneParallel(la, tr, tcfg, s.tuneOpts(app, 0))
		if err != nil {
			return nil, 0, err
		}
		return tuned, la.Windows, nil
	}
	// ~25% duty-cycle PT bursts vs classic 32-deep LBR samples.
	burst, burstWin, err := sampled(lbr.Config{Interval: 16_384, Depth: 4_096, Seed: 0x1B12})
	if err != nil {
		return nil, err
	}
	classic, lbrWin, err := sampled(lbr.Config{Interval: 400, Depth: 32, Seed: 0x1B12})
	if err != nil {
		return nil, err
	}
	s.logf("[%s] lbr done", app)
	return []float64{
		ev.BestPoint().SpeedupPct,
		burst.BestPoint().SpeedupPct,
		classic.BestPoint().SpeedupPct,
		float64(burstWin),
		float64(lbrWin),
		float64(ev.AnalysisWindows),
	}, nil
}

// LBR compares profile sources (Sec. III-A names both PT and LBR): a full
// PT trace, PT *burst* sampling (periodic multi-thousand-block captures,
// the AutoFDO-style production compromise), and classic 32-deep LBR
// samples. An eviction window spans hundreds-to-thousands of blocks, so
// 32-block LBR fragments witness essentially none (the analysis finds no
// windows at all), bursts recover most of the signal, and the full trace
// is the ceiling — quantifying why the paper profiles with PT.
func (s *Suite) LBR() (*Table, error) {
	t := NewTable("lbr", "Profile source: full PT vs PT-burst sampling vs LBR (no prefetch, LRU)",
		"application", "pt%", "burst%", "lbr%", "burst-windows", "lbr-windows", "pt-windows")
	t.Note = "eviction windows span hundreds of blocks: LBR depth cannot see them, PT bursts can"
	cost := float64(s.cfg.TraceBlocks) * float64(3*len(s.cfg.Thresholds)+6)
	return s.cellTable(t, cost, appCells(s.extApps(), s.lbrRow))
}

// xprefetchRow evaluates temporal prefetching for one application; the
// final element is the TIFS metadata footprint in KB (-1 when the
// prefetcher exposes no accounting).
func (s *Suite) xprefetchRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	base, err := s.run(app, "none", "lru", false)
	if err != nil {
		return nil, err
	}
	nlp, err := s.run(app, "nlp", "lru", false)
	if err != nil {
		return nil, err
	}
	fdip, err := s.run(app, "fdip", "lru", false)
	if err != nil {
		return nil, err
	}

	// TIFS baseline (not part of the standard panel cross-product).
	pol, _ := replacement.New("lru")
	tf, err := prefetch.New("tifs", st.app.Prog)
	if err != nil {
		return nil, err
	}
	tifsRes, err := frontend.Run(s.cfg.Params, st.app.Prog, s.source(st, 0), frontend.Options{
		Policy:       pol,
		Prefetcher:   tf,
		WarmupBlocks: s.cfg.WarmupBlocks,
	})
	if err != nil {
		return nil, err
	}
	metaKB := -1.0
	if tp, ok := tf.(*prefetch.TIFS); ok {
		metaKB = float64(tp.MetadataBytes() >> 10)
	}

	// Ripple on top of TIFS.
	a, err := s.analysisFor(app)
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("tifs", "lru", frontend.HintInvalidate)
	tuned, err := core.TuneParallel(a, s.source(st, 0), tcfg, s.tuneOpts(app, 0))
	if err != nil {
		return nil, err
	}
	rippleTifs, err := core.RunPlan(st.app.Prog, s.source(st, 0), tcfg, tuned.BestPlan)
	if err != nil {
		return nil, err
	}
	s.logf("[%s] xprefetch done", app)
	return []float64{
		speedupPct(base.Cycles, nlp.Cycles),
		speedupPct(base.Cycles, fdip.Cycles),
		speedupPct(base.Cycles, tifsRes.Cycles),
		speedupPct(base.Cycles, rippleTifs.Cycles),
		metaKB,
	}, nil
}

// XPrefetch evaluates the temporal record/replay prefetcher (TIFS-like)
// the paper's related work contrasts FDIP against: effective but at an
// on-chip metadata cost far beyond Table I, and still improved by Ripple.
func (s *Suite) XPrefetch() (*Table, error) {
	t := NewTable("xprefetch", "Temporal (record/replay) prefetching vs the paper's baselines (LRU, % speedup over no-prefetch LRU)",
		"application", "nlp%", "fdip%", "tifs%", "ripple-tifs%", "tifs-metadata")
	apps := s.extApps()
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+6)
	rows, err := s.cellRows(t.ID, cost, appCells(apps, s.xprefetchRow))
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		meta := "n/a"
		if row[4] >= 0 {
			meta = fmt.Sprintf("%dKB", int64(row[4]))
		}
		t.AddRow(apps[i],
			fmt.Sprintf("%.2f", row[0]),
			fmt.Sprintf("%.2f", row[1]),
			fmt.Sprintf("%.2f", row[2]),
			fmt.Sprintf("%.2f", row[3]),
			meta)
	}
	t.Note = "record/replay prefetching needs orders of magnitude more metadata than Table I budgets"
	return t, nil
}

// layoutRow evaluates one application's placement pair.
func (s *Suite) layoutRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	base, err := s.run(app, "none", "lru", false)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "none", "lru")
	if err != nil {
		return nil, err
	}
	shiftCfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)
	shiftCfg.ShiftLayout = true
	shifted, err := core.RunPlan(st.app.Prog, s.source(st, 0), shiftCfg, ev.BestPlan)
	if err != nil {
		return nil, err
	}
	return []float64{
		speedupPct(base.Cycles, ev.Best.Cycles),
		speedupPct(base.Cycles, shifted.Cycles),
	}, nil
}

// Layout is the injection-placement ablation: the tuned plan executed
// with layout-neutral placement (padding/NOP slots — the pipeline
// default) vs. naive full relayout, which shifts every downstream byte,
// remaps the hot footprint across cache sets, and invalidates the profile
// the plan was computed from.
func (s *Suite) Layout() (*Table, error) {
	t := NewTable("layout", "Injection placement: layout-neutral vs full relayout (no prefetch, LRU, % speedup)",
		"application", "preserve%", "shift%").WithMean()
	t.Note = "relayout invalidates the profiled line-to-set mapping; padding placement keeps it"
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+5)
	return s.cellTable(t, cost, appCells(s.extApps(), s.layoutRow))
}

// codeLayoutRow evaluates layout-only / ripple-only / composed for one
// application.
func (s *Suite) codeLayoutRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	tr := s.source(st, 0)
	base, err := s.run(app, "none", "lru", false)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "none", "lru")
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)

	prof, err := layout.ProfileFromTrace(st.app.Prog, tr)
	if err != nil {
		return nil, err
	}
	optProg, err := layout.Optimize(st.app.Prog, prof, layout.DefaultOptions())
	if err != nil {
		return nil, err
	}
	layoutOnly, err := core.RunPlan(optProg, tr, tcfg, nil)
	if err != nil {
		return nil, err
	}

	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = s.cfg.Params.L1I
	a2, err := core.Analyze(optProg, tr, acfg)
	if err != nil {
		return nil, err
	}
	tuned, err := core.TuneParallel(a2, tr, tcfg, s.tuneOpts(app, 0))
	if err != nil {
		return nil, err
	}
	both, err := core.RunPlan(optProg, tr, tcfg, tuned.BestPlan)
	if err != nil {
		return nil, err
	}
	s.logf("[%s] codelayout done", app)
	return []float64{
		speedupPct(base.Cycles, layoutOnly.Cycles),
		speedupPct(base.Cycles, ev.Best.Cycles),
		speedupPct(base.Cycles, both.Cycles),
	}, nil
}

// CodeLayout compares Ripple against the code-layout-optimization family
// the paper's introduction cites (AutoFDO/BOLT-style function clustering
// and hot/cold block reordering) and shows the two compose: the layout
// optimizer and Ripple consume the same profile, and Ripple's analysis is
// re-run on the optimized image before injection, as a production pipeline
// would do.
func (s *Suite) CodeLayout() (*Table, error) {
	t := NewTable("codelayout", "Code layout (BOLT/C3-style) vs Ripple vs both (no prefetch, LRU, % speedup over baseline)",
		"application", "layout%", "ripple%", "layout+ripple%").WithMean()
	t.Note = "layout packs hot lines; Ripple fixes replacement; gains stack when composed"
	cost := float64(s.cfg.TraceBlocks) * float64(2*len(s.cfg.Thresholds)+6)
	return s.cellTable(t, cost, appCells(s.extApps(), s.codeLayoutRow))
}

// windowCaps are the MaxWindowBlocks settings of the WindowCap ablation.
var windowCaps = []int{64, 512, 2048}

// windowCapRow runs the analysis and tuning at one window cap.
func (s *Suite) windowCapRow(app string, wc int) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	tr := s.source(st, 0)
	tcfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)
	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = s.cfg.Params.L1I
	acfg.MaxWindowBlocks = wc
	a, err := core.Analyze(st.app.Prog, tr, acfg)
	if err != nil {
		return nil, err
	}
	tuned, err := core.TuneParallel(a, tr, tcfg, s.tuneOpts(app, 0))
	if err != nil {
		return nil, err
	}
	s.logf("[%s] windowcap %d done", app, wc)
	return []float64{
		float64(a.Windows),
		float64(tuned.BestPlan.WindowsCovered),
		tuned.BestPoint().SpeedupPct,
	}, nil
}

// WindowCap is the MaxWindowBlocks design-choice ablation DESIGN.md calls
// out: how far back from each ideal eviction the candidate scan walks.
// Too small and cue candidates near the victim's last use are lost; the
// default (2048) captures nearly all windows at tractable analysis cost.
func (s *Suite) WindowCap() (*Table, error) {
	var cells []cell
	for _, app := range s.extApps() {
		for _, wc := range windowCaps {
			cells = append(cells, cell{fmt.Sprintf("%s/%d", app, wc),
				func() ([]float64, error) { return s.windowCapRow(app, wc) }})
		}
	}
	t := NewTable("windowcap", "Analysis window cap ablation (no prefetch, LRU, tuned speedup %)",
		"app/cap", "windows", "covered@best", "speedup%")
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+2)
	return s.cellTable(t, cost, cells)
}

// hintCostRow re-prices one application's tuned plan at three hint
// costs.
func (s *Suite) hintCostRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "none", "lru")
	if err != nil {
		return nil, err
	}
	var row []float64
	for _, hintCPI := range []float64{0, s.cfg.Params.HintCPI, s.cfg.Params.BaseCPI} {
		params := s.cfg.Params
		params.HintCPI = hintCPI
		tcfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)
		tcfg.Params = params
		base, err := core.RunPlan(st.app.Prog, s.source(st, 0), tcfg, nil)
		if err != nil {
			return nil, err
		}
		res, err := core.RunPlan(st.app.Prog, s.source(st, 0), tcfg, ev.BestPlan)
		if err != nil {
			return nil, err
		}
		row = append(row, speedupPct(base.Cycles, res.Cycles))
	}
	return row, nil
}

// HintCost is the hint-execution-cost sensitivity ablation: the frontend
// charges each executed invalidate HintCPI cycles (a dependency-free µop;
// default 0.12). The conclusions must not hinge on that constant, so the
// tuned plan is re-evaluated with the hint priced at zero and at a full
// average instruction (BaseCPI).
func (s *Suite) HintCost() (*Table, error) {
	t := NewTable("hintcost", "Hint execution cost sensitivity (no prefetch, LRU, % speedup over LRU)",
		"application", "free%", "default%", "full-instr%").WithMean()
	t.Note = "dynamic hint counts are ~0.2% of instructions, so even full-price hints barely move the result"
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+8)
	return s.cellTable(t, cost, appCells(s.extApps(), s.hintCostRow))
}

// phasesRow builds one (possibly phased) variant of an application and
// measures LRU MPKI, Ripple's tuned speedup, and the ideal limit.
func (s *Suite) phasesRow(appName string, phased bool) ([]float64, error) {
	model, ok := workload.ByName(appName)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown app %q", appName)
	}
	m := model
	variant := "steady"
	if phased {
		m.PhaseRequests = 60
		m.Name = appName + "-phased"
		variant = "phased"
	}
	tcfg := s.tuneCfg("none", "lru", frontend.HintInvalidate)
	app, err := workload.Build(m)
	if err != nil {
		return nil, err
	}
	tr := app.Stream(0, s.cfg.TraceBlocks)
	base, err := core.RunPlan(app.Prog, tr, tcfg, nil)
	if err != nil {
		return nil, err
	}
	ideal, err := opt.SimulateSource(core.AccessEvents(app.Prog, tr, tcfg, nil), s.cfg.Params.L1I, opt.ModeDemandMIN, false)
	if err != nil {
		return nil, err
	}
	idealMisses := ideal.DemandMisses
	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = s.cfg.Params.L1I
	a, err := core.Analyze(app.Prog, tr, acfg)
	if err != nil {
		return nil, err
	}
	tuned, err := core.TuneParallel(a, tr, tcfg, s.tuneOpts(m.Name, 0))
	if err != nil {
		return nil, err
	}
	s.logf("[%s] phases %s done", appName, variant)
	return []float64{
		base.MPKI(),
		tuned.BestPoint().SpeedupPct,
		speedupPct(base.Cycles, idealCyclesFrom(base, idealMisses)),
	}, nil
}

// Phases exercises the dynamic reuse-distance variance the paper blames
// for static classifiers' failure (Sec. II-D): a phased variant of each
// application rotates its request popularity every 60 requests, so the
// same lines are cache-friendly in one phase and cache-averse in the
// next. Ripple's profile covers all phases and its cue probabilities stay
// predictive, so the gains survive phase churn.
func (s *Suite) Phases() (*Table, error) {
	var cells []cell
	for _, appName := range s.extApps() {
		cells = append(cells,
			cell{appName + "/steady", func() ([]float64, error) { return s.phasesRow(appName, false) }},
			cell{appName + "/phased", func() ([]float64, error) { return s.phasesRow(appName, true) }})
	}
	t := NewTable("phases", "Phase-varying request mixes (no prefetch, LRU)",
		"app/variant", "lru-mpki", "ripple%", "ideal%")
	t.Note = "Ripple's profile spans the phases, so cue probabilities remain predictive"
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+3)
	return s.cellTable(t, cost, cells)
}

// TRRIPZoo places the temperature-tiered RRIP policy in the Ripple
// comparison: TRRIP as a hardware baseline over LRU, Ripple's hints
// injected on top of it, and the resulting replacement coverage — the
// Fig. 9-style view of a policy the paper does not study.
func (s *Suite) TRRIPZoo() (*Table, error) {
	const pf = "fdip"
	jobs := s.crossJobs(s.cfg.Apps, []string{pf}, []string{"lru", "trrip"})
	jobs = append(jobs, s.rippleJobs(s.cfg.Apps, []string{pf}, []string{"trrip"})...)
	if err := s.warm(jobs...); err != nil {
		return nil, err
	}
	t := NewTable("trrip", "Temperature-tiered RRIP under FDIP: hardware baseline and as Ripple's hint target",
		"application", "trrip%", "ripple-trrip%", "coverage%").WithMean()
	for _, app := range s.cfg.Apps {
		base, err := s.run(app, pf, "lru", false)
		if err != nil {
			return nil, err
		}
		hw, err := s.run(app, pf, "trrip", false)
		if err != nil {
			return nil, err
		}
		ev, err := s.rippleFor(app, pf, "trrip")
		if err != nil {
			return nil, err
		}
		t.AddRowF(app, "%.2f",
			speedupPct(base.Cycles, hw.Cycles),
			speedupPct(base.Cycles, ev.Best.Cycles),
			ev.Best.Coverage()*100)
	}
	t.Note = "speedups over the FDIP+LRU baseline; coverage is the share of ripple-trrip's evictions freed by hints"
	return t, nil
}
