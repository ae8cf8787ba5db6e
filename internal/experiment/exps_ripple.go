package experiment

import (
	"fmt"

	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/runner"
	"ripple/internal/workload"
)

// prefetchers in paper order for the Fig. 7/8 panels.
var panelPrefetchers = []string{"none", "nlp", "fdip"}

// Fig7 reproduces Figure 7: Ripple's speedup over the per-prefetcher LRU
// baseline, next to the prior policies and the ideal replacement limit —
// one panel per prefetcher. Paper means: Ripple-LRU +1.25%/+2.13%/+1.4%
// under none/NLP/FDIP, vs. ideal +3.36%/+3.87%/+3.16%.
func (s *Suite) Fig7() ([]*Table, error) {
	jobs := s.crossJobs(s.cfg.Apps, panelPrefetchers, []string{"lru", "hawkeye", "drrip", "srrip", "ghrp"})
	jobs = append(jobs, s.rippleJobs(s.cfg.Apps, panelPrefetchers, []string{"random", "lru"})...)
	jobs = append(jobs, s.oracleJobs(s.cfg.Apps, panelPrefetchers)...)
	if err := s.warm(jobs...); err != nil {
		return nil, err
	}
	var out []*Table
	for _, pf := range panelPrefetchers {
		t := NewTable("fig7-"+pf,
			fmt.Sprintf("Speedup over LRU baseline with %s prefetching (%%)", pf),
			"application",
			"hawkeye%", "drrip%", "srrip%", "ghrp%", "ripple-rand%", "ripple-lru%", "ideal%").WithMean()
		for _, app := range s.cfg.Apps {
			base, err := s.run(app, pf, "lru", false)
			if err != nil {
				return nil, err
			}
			var row []float64
			for _, pol := range []string{"hawkeye", "drrip", "srrip", "ghrp"} {
				r, err := s.run(app, pf, pol, false)
				if err != nil {
					return nil, err
				}
				row = append(row, speedupPct(base.Cycles, r.Cycles))
			}
			for _, pol := range []string{"random", "lru"} {
				ev, err := s.rippleFor(app, pf, pol)
				if err != nil {
					return nil, err
				}
				row = append(row, speedupPct(base.Cycles, ev.Best.Cycles))
			}
			idealRepl, err := s.idealReplacementCycles(app, pf)
			if err != nil {
				return nil, err
			}
			row = append(row, speedupPct(base.Cycles, idealRepl))
			t.AddRowF(app, "%.2f", row...)
		}
		out = append(out, t)
	}
	out[0].Note = "paper means (none): ripple-lru +1.25%, ideal +3.36%"
	out[1].Note = "paper means (nlp): ripple-lru +2.13%, ideal +3.87%"
	out[2].Note = "paper means (fdip): ripple-lru +1.4%, ideal +3.16%"
	return out, nil
}

// Fig8 reproduces Figure 8: the L1I miss reduction (%) over the LRU
// baseline for Ripple and the ideal policy, one panel per prefetcher.
// Paper means: Ripple-LRU avoids 33%/53%/41% of the misses the ideal
// policy avoids under none/NLP/FDIP (19% absolute mean reduction vs.
// 42.5% ideal).
func (s *Suite) Fig8() ([]*Table, error) {
	jobs := s.crossJobs(s.cfg.Apps, panelPrefetchers, []string{"lru"})
	jobs = append(jobs, s.rippleJobs(s.cfg.Apps, panelPrefetchers, []string{"random", "lru"})...)
	jobs = append(jobs, s.oracleJobs(s.cfg.Apps, panelPrefetchers)...)
	if err := s.warm(jobs...); err != nil {
		return nil, err
	}
	var out []*Table
	for _, pf := range panelPrefetchers {
		t := NewTable("fig8-"+pf,
			fmt.Sprintf("L1I miss reduction over LRU with %s prefetching (%%)", pf),
			"application", "ripple-rand%", "ripple-lru%", "ideal%").WithMean()
		for _, app := range s.cfg.Apps {
			base, err := s.run(app, pf, "lru", false)
			if err != nil {
				return nil, err
			}
			baseMisses := float64(base.L1I.DemandMisses + base.LateMisses)
			reduction := func(m float64) float64 {
				if baseMisses == 0 {
					return 0
				}
				return (baseMisses - m) / baseMisses * 100
			}
			var row []float64
			for _, pol := range []string{"random", "lru"} {
				ev, err := s.rippleFor(app, pf, pol)
				if err != nil {
					return nil, err
				}
				row = append(row, reduction(float64(ev.Best.L1I.DemandMisses+ev.Best.LateMisses)))
			}
			ideal, err := s.oracleMissCount(app, pf, opt.ModeDemandMIN)
			if err != nil {
				return nil, err
			}
			row = append(row, reduction(float64(ideal)))
			t.AddRowF(app, "%.2f", row...)
		}
		out = append(out, t)
	}
	out[0].Note = "paper means (none): ripple-lru 9.57%, ideal 28.88%"
	out[1].Note = "paper means (nlp): ripple-lru 28.6%, ideal 53.66%"
	out[2].Note = "paper means (fdip): ripple-lru 18.61%, ideal 45%"
	return out, nil
}

// Fig9 reproduces Figure 9: Ripple's replacement coverage per application
// (fraction of all replacement decisions initiated by Ripple
// invalidations). Paper: >50% mean; below 50% only for the three JIT-heavy
// HHVM apps; 98.7% for verilator.
func (s *Suite) Fig9() (*Table, error) {
	if err := s.warm(s.rippleJobs(s.cfg.Apps, panelPrefetchers, []string{"lru"})...); err != nil {
		return nil, err
	}
	t := NewTable("fig9", "Ripple-LRU replacement coverage (%)",
		"application", "none%", "nlp%", "fdip%").WithMean()
	for _, app := range s.cfg.Apps {
		var row []float64
		for _, pf := range panelPrefetchers {
			ev, err := s.rippleFor(app, pf, "lru")
			if err != nil {
				return nil, err
			}
			row = append(row, ev.Best.Coverage()*100)
		}
		t.AddRowF(app, "%.1f", row...)
	}
	t.Note = "paper: >50% mean, HHVM apps lower (JIT code not instrumentable)"
	return t, nil
}

// Fig10 reproduces Figure 10: Ripple's replacement accuracy vs. the
// underlying LRU's own accuracy and the combined accuracy, under FDIP.
// Paper: Ripple 92% mean (min 88%), LRU 77.8%, combined 86%.
func (s *Suite) Fig10() (*Table, error) {
	if err := s.warm(s.rippleJobs(s.cfg.Apps, []string{"fdip"}, []string{"lru"})...); err != nil {
		return nil, err
	}
	t := NewTable("fig10", "Replacement accuracy under FDIP (%)",
		"application", "ripple%", "lru%", "combined%").WithMean()
	for _, app := range s.cfg.Apps {
		ev, err := s.rippleFor(app, "fdip", "lru")
		if err != nil {
			return nil, err
		}
		t.AddRowF(app, "%.1f",
			ev.Best.HintAccuracy()*100,
			ev.Best.PolicyAccuracy()*100,
			ev.Best.CombinedAccuracy()*100)
	}
	t.Note = "paper means: ripple 92%, LRU 77.8%, combined 86%"
	return t, nil
}

// Fig11 reproduces Figure 11: the static instruction overhead of the
// injected binaries. Paper: <4.4% everywhere, 3.4% mean.
func (s *Suite) Fig11() (*Table, error) {
	if err := s.warm(s.rippleJobs(s.cfg.Apps, panelPrefetchers, []string{"lru"})...); err != nil {
		return nil, err
	}
	t := NewTable("fig11", "Static instruction overhead of injection (%)",
		"application", "none%", "nlp%", "fdip%").WithMean()
	for _, app := range s.cfg.Apps {
		var row []float64
		for _, pf := range panelPrefetchers {
			ev, err := s.rippleFor(app, pf, "lru")
			if err != nil {
				return nil, err
			}
			row = append(row, ev.StaticOv)
		}
		t.AddRowF(app, "%.2f", row...)
	}
	t.Note = "paper: <4.4% per app, 3.4% mean"
	return t, nil
}

// Fig12 reproduces Figure 12: the dynamic instruction overhead of executed
// hints. Paper: 2.2% mean, ~10% for verilator (where coverage is almost
// total).
func (s *Suite) Fig12() (*Table, error) {
	if err := s.warm(s.rippleJobs(s.cfg.Apps, panelPrefetchers, []string{"lru"})...); err != nil {
		return nil, err
	}
	t := NewTable("fig12", "Dynamic instruction overhead of injection (%)",
		"application", "none%", "nlp%", "fdip%").WithMean()
	for _, app := range s.cfg.Apps {
		var row []float64
		for _, pf := range panelPrefetchers {
			ev, err := s.rippleFor(app, pf, "lru")
			if err != nil {
				return nil, err
			}
			row = append(row, core.DynamicOverheadPct(ev.Best))
		}
		t.AddRowF(app, "%.2f", row...)
	}
	t.Note = "paper: 2.2% mean, up to ~10% (verilator)"
	return t, nil
}

// fig13Row computes one application's cross-input row: the input-#0
// plan's mean speedup on inputs #1-#3 vs. input-specific retuning.
func (s *Suite) fig13Row(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "fdip", "lru")
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("fdip", "lru", frontend.HintInvalidate)
	var genSum, specSum float64
	for input := 1; input <= 3; input++ {
		tr := s.source(st, input)
		base, err := core.RunPlan(st.app.Prog, tr, tcfg, nil)
		if err != nil {
			return nil, err
		}
		gen, err := core.RunPlan(st.app.Prog, tr, tcfg, ev.BestPlan)
		if err != nil {
			return nil, err
		}
		genSum += speedupPct(base.Cycles, gen.Cycles)

		acfg := core.DefaultAnalysisConfig()
		acfg.L1I = s.cfg.Params.L1I
		a, err := core.Analyze(st.app.Prog, tr, acfg)
		if err != nil {
			return nil, err
		}
		tune, err := core.TuneParallel(a, tr, tcfg, s.tuneOpts(app, input))
		if err != nil {
			return nil, err
		}
		specSum += tune.BestPoint().SpeedupPct
	}
	s.logf("[%s] fig13 done", app)
	return []float64{genSum / 3, specSum / 3}, nil
}

// Fig13 reproduces Figure 13: cross-input generalization under FDIP+LRU.
// Each application is optimized with the input-#0 profile and evaluated on
// inputs #1-#3, against plans tuned on each input's own profile. Paper:
// input-specific profiles give 17% more IPC gain.
func (s *Suite) Fig13() (*Table, error) {
	t := NewTable("fig13", "Cross-input speedup under FDIP+LRU (%, mean over inputs #1-#3)",
		"application", "profile#0%", "input-specific%").WithMean()
	t.Note = "paper: input-specific profiles give 17% more IPC gain"
	cost := float64(s.cfg.TraceBlocks) * float64(3*(len(s.cfg.Thresholds)+4))
	return s.cellTable(t, cost, appCells(s.cfg.Apps, s.fig13Row))
}

// Fig6 reproduces Figure 6: the coverage/accuracy trade-off across the
// invalidation threshold for finagle-http. Paper: both >50%/>80% only in
// the 40-60% threshold band; per-app optima between 45% and 65%.
func (s *Suite) Fig6() (*Table, error) {
	const app = "finagle-http"
	curveJob := runner.NewJob(s.cellSig("fig6", app), "fig6 "+app,
		float64(s.cfg.TraceBlocks)*11,
		func() (*[]core.ThresholdPoint, error) {
			st, err := s.state(app)
			if err != nil {
				return nil, err
			}
			a, err := s.analysisFor(app)
			if err != nil {
				return nil, err
			}
			tcfg := s.tuneCfg("fdip", "lru", frontend.HintInvalidate)
			tcfg.MeasureAccuracy = true
			tcfg.Thresholds = []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
			tune, err := core.TuneParallel(a, s.source(st, 0), tcfg, s.tuneOpts(app, 0))
			if err != nil {
				return nil, err
			}
			return &tune.Curve, nil
		})
	v, err := s.pool.Do(curveJob)
	if err != nil {
		return nil, err
	}
	curve := *(v.(*[]core.ThresholdPoint))
	t := NewTable("fig6", "Coverage vs. accuracy vs. threshold (finagle-http, FDIP+LRU)",
		"threshold", "coverage%", "accuracy%", "mpki", "speedup%")
	for _, pt := range curve {
		t.AddRowF(fmt.Sprintf("%.2f", pt.Threshold), "%.2f",
			pt.Coverage*100, pt.Accuracy*100, pt.MPKI, pt.SpeedupPct)
	}
	t.Note = "paper: coverage falls and accuracy rises with threshold; sweet spot mid-range"
	return t, nil
}

// Fig5 reproduces the worked example of Figure 5 in spirit: it runs the
// eviction analysis on a miniature application against a tiny two-way
// I-cache and reports, for the most-evicted victim line, every candidate
// cue block with its execution count, window membership, and conditional
// probability.
func (s *Suite) Fig5() (*Table, error) {
	model := workload.Model{
		Name: "fig5-mini", Seed: 7,
		Funcs: 12, ServiceFuncs: 3, UtilityFuncs: 2, Levels: 3,
		BlocksMin: 3, BlocksMax: 5, BlockBytesMin: 24, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.3, PICall: 0, PIJump: 0,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 2, IndirectFanout: 2,
		ZipfRequest: 0.8, RequestsPerBurst: 1,
	}
	app, err := workload.Build(model)
	if err != nil {
		return nil, err
	}
	tr := app.Stream(0, 4000)
	acfg := core.AnalysisConfig{
		L1I:             cache.Config{SizeBytes: 4 * 64, Ways: 2, LineBytes: 64},
		MaxWindowBlocks: 64,
	}
	a, err := core.Analyze(app.Prog, tr, acfg)
	if err != nil {
		return nil, err
	}
	line, n := a.MostEvictedLine()
	t := NewTable("fig5",
		fmt.Sprintf("Eviction analysis example: victim line %#x, %d eviction windows", line, n),
		"candidate cue block", "P(evict|exec)")
	for i, c := range a.Candidates(line) {
		if i >= 8 {
			break
		}
		t.AddRowF(fmt.Sprintf("B%d", c.Block), "%.3f", c.Probability)
	}
	t.Note = "mirrors the Fig. 5 conditional-probability computation on a miniature app"
	return t, nil
}

// demoteRow evaluates one application's invalidate-vs-demote pair.
func (s *Suite) demoteRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	base, err := s.run(app, "fdip", "lru", false)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "fdip", "lru")
	if err != nil {
		return nil, err
	}
	dcfg := s.tuneCfg("fdip", "lru", frontend.HintDemote)
	dem, err := core.RunPlan(st.app.Prog, s.source(st, 0), dcfg, ev.BestPlan)
	if err != nil {
		return nil, err
	}
	return []float64{
		speedupPct(base.Cycles, ev.Best.Cycles),
		speedupPct(base.Cycles, dem.Cycles),
	}, nil
}

// Demote reproduces the Sec. IV "invalidation vs. reducing LRU priority"
// experiment: the tuned Ripple-LRU plan executed with demote hints instead
// of invalidations, under FDIP. Paper: demotion nudges the mean speedup
// from 1.6% to 1.7% (all apps but verilator benefit).
func (s *Suite) Demote() (*Table, error) {
	t := NewTable("demote", "Ripple-LRU with invalidate vs. demote hints, FDIP (% speedup over LRU)",
		"application", "invalidate%", "demote%").WithMean()
	t.Note = "paper: demote variant slightly ahead on average (1.6% -> 1.7%)"
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+5)
	return s.cellTable(t, cost, appCells(s.cfg.Apps, s.demoteRow))
}

// granularityRow evaluates one application's line-vs-block pair.
func (s *Suite) granularityRow(app string) ([]float64, error) {
	st, err := s.state(app)
	if err != nil {
		return nil, err
	}
	base, err := s.run(app, "fdip", "lru", false)
	if err != nil {
		return nil, err
	}
	ev, err := s.rippleFor(app, "fdip", "lru")
	if err != nil {
		return nil, err
	}
	tcfg := s.tuneCfg("fdip", "lru", frontend.HintInvalidate)
	wide := ev.BestPlan.ExpandVictimsToBlocks(st.app.Prog)
	wr, err := core.RunPlan(st.app.Prog, s.source(st, 0), tcfg, wide)
	if err != nil {
		return nil, err
	}
	return []float64{
		speedupPct(base.Cycles, ev.Best.Cycles),
		speedupPct(base.Cycles, wr.Cycles),
	}, nil
}

// Granularity reproduces the Sec. III-C invalidation-granularity ablation:
// the tuned plan's line-granularity victims vs. the same victims widened
// to whole basic blocks, under FDIP+LRU.
func (s *Suite) Granularity() (*Table, error) {
	t := NewTable("granularity", "Victim granularity: cache line vs. whole block, FDIP+LRU (% speedup over LRU)",
		"application", "line%", "block%").WithMean()
	cost := float64(s.cfg.TraceBlocks) * float64(len(s.cfg.Thresholds)+5)
	return s.cellTable(t, cost, appCells(s.cfg.Apps, s.granularityRow))
}
