package core

import (
	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/program"
)

// Outcome bundles the full Ripple pipeline result for one application and
// configuration: the analysis, the tuned plan, the rewritten binary, and
// the instruction-overhead accounting of Figs. 11 and 12.
type Outcome struct {
	Analysis *Analysis
	Tune     *TuneResult
	// Injected is the rewritten program (tuned plan applied).
	Injected *program.Program

	// StaticOverheadPct is the static instruction bloat of the injected
	// binary (Fig. 11; paper: <4.4%).
	StaticOverheadPct float64
	// The dynamic overhead (Fig. 12; paper: ~2.2% mean) depends on the
	// evaluation trace; compute it from a frontend.Result via
	// DynamicOverheadPct.
}

// OptimizeParallel runs the whole pipeline on a training source: eviction
// analysis against the configured L1I, threshold tuning under the target
// policy and prefetcher (TuneParallel, whose runs go to opts.Pool), and
// link-time injection of the winning plan. The analysis itself stays
// inline. Output is the same for any opts.
func OptimizeParallel(prog *program.Program, train blockseq.Source, acfg AnalysisConfig, tcfg TuneConfig, opts ParallelOptions) (*Outcome, error) {
	// Analyze against the same geometry the target runs.
	acfg.L1I = tcfg.Params.L1I
	a, err := Analyze(prog, train, acfg)
	if err != nil {
		return nil, err
	}
	tr, err := TuneParallel(a, train, tcfg, opts)
	if err != nil {
		return nil, err
	}
	injected := tr.BestPlan.ApplyPreservingLayout(prog)
	o := &Outcome{
		Analysis: a,
		Tune:     tr,
		Injected: injected,
	}
	if orig := prog.StaticInstrs(); orig > 0 {
		o.StaticOverheadPct = float64(injected.StaticInstrs()-orig) / float64(orig) * 100
	}
	return o, nil
}

// DynamicOverheadPct returns the share of dynamic instructions a run spent
// executing injected hints (Fig. 12).
func DynamicOverheadPct(r frontend.Result) float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.HintInstrs) / float64(r.Instrs) * 100
}
