package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

// shareTolerance is how far a measured share may sit from the predicted
// one, in share points, before the prediction counts as wrong.
const shareTolerance = 0.15

// layers runs one traced pass of the workload, then the probes, and
// derives the per-layer metrics. The probes call each layer standalone,
// after the pipeline, in spans of their own: the decode, demand-line and
// MIN-replay steps inside Analyze; PlanAt, plan application and RunPlan;
// the analysis and tuning of watcher windows. A traced run reports every
// per-layer metric BENCHMARK.json declares, so a layer the pipeline does
// not call (Analyze and tuning on the sweep, the simulator sweep on plan
// and watch, the watcher on plan and sweep) is probed on the workload's
// own input too.
func layers(b bench, in *inputs, setups []setupTimes, untracedWall float64, runID string) (map[string]float64, []op, error) {
	tr := newTracer(runID)
	v := map[string]float64{
		"workload.build_s": medianSetup(setups, func(s setupTimes) time.Duration { return s.build }),
		"trace.encode_s":   medianSetup(setups, func(s setupTimes) time.Duration { return s.encode }),
		"program.load_s":   medianSetup(setups, func(s setupTimes) time.Duration { return s.load }),
	}

	end := tr.begin(b.name)
	out, err := b.pass(in, tr)
	end()
	if err != nil {
		return nil, nil, err
	}
	root, _ := tr.find(b.name)
	v["bench.trace_overhead_s"] = root.dur().Seconds() - untracedWall
	v["bench.span_coverage"] = 1 - selfTimes(tr.spans)[root.ID].Seconds()/root.dur().Seconds()
	v["trace.decoded_blocks"] = float64(out.decoded)
	v["trace.decode_passes"] = float64(out.decoded) / float64(in.blocks)

	end = tr.begin("probes")
	p, err := probe(in, tr, out)
	end()
	if err != nil {
		return nil, nil, err
	}

	// Analysis: the decode, demand-line and MIN-replay probes stand for
	// the same steps inside Analyze; what is left is the window scan and
	// cue selection.
	decodeS := tr.total("trace.decode", nil).Seconds()
	analyze, _ := tr.find("core.Analyze")
	v["trace.decode_s"] = decodeS
	v["frontend.demand_lines_s"] = tr.total("frontend.DemandLines", nil).Seconds()
	v["frontend.demand_lines"] = float64(p.demandLines)
	v["opt.min_replay_s"] = tr.total("opt.SimulateSource", nil).Seconds()
	v["opt.evictions"] = float64(p.min.Evictions)
	v["opt.ideal_misses"] = float64(p.min.DemandMisses)
	v["core.analyze_s"] = analyze.dur().Seconds()
	v["core.analyze_alloc_mb"] = float64(analyze.AllocBytes) / (1 << 20)
	v["core.analyze_decode_passes"] = float64(p.analyzeDecoded) / float64(in.blocks)
	v["core.windows"] = float64(p.analysis.Windows)
	v["core.window_scan_s"] = v["core.analyze_s"] - v["core.analyze_decode_passes"]*decodeS -
		v["frontend.demand_lines_s"] - v["opt.min_replay_s"]

	tune, _ := tr.find("core.TuneParallel")
	v["core.tune_s"] = tune.dur().Seconds()
	v["core.tune_alloc_mb"] = float64(tune.AllocBytes) / (1 << 20)
	v["core.plan_at_s"] = tr.total("core.PlanAt", nil).Seconds()
	v["core.injections"] = float64(p.best.StaticInstructions())
	v["core.cue_blocks"] = float64(len(p.best.Injections))
	v["core.windows_covered_ratio"] = ratio(uint64(p.best.WindowsCovered), uint64(p.best.WindowsTotal))
	v["core.speedup_pct"] = p.tunedSpeedup
	v["core.run_plan_s"] = tr.total("core.RunPlan", nil).Seconds()
	v["program.apply_s"] = tr.total("program.ApplyPreservingLayout", nil).Seconds()

	var simBlocks uint64
	for _, r := range p.sweep {
		simBlocks += r.Blocks
	}
	v["frontend.run_s"] = tr.total("frontend.Run", nil).Seconds()
	v["frontend.runs"] = float64(len(p.sweep))
	v["frontend.sim_blocks_per_s"] = float64(simBlocks) / v["frontend.run_s"]
	for _, name := range replacement.Names() {
		v["replacement."+name+"_s"] = tr.total("frontend.Run", func(s span) bool { return s.Attrs["policy"] == name }).Seconds()
	}
	for _, name := range prefetch.Names() {
		v["prefetch."+name+"_s"] = tr.total("frontend.Run", func(s span) bool { return s.Attrs["prefetcher"] == name }).Seconds()
	}

	// The runner counters belong to the pool of the span that owns it.
	owner, _ := tr.find(p.poolOwner)
	v["runner.jobs"] = float64(p.pool.Computed)
	v["runner.compute_s"] = p.pool.ComputeTime.Seconds()
	v["runner.concurrency"] = p.pool.ComputeTime.Seconds() / owner.dur().Seconds()
	v["runner.errors"] = float64(p.pool.Errors)
	v["runner.retries"] = float64(p.pool.Retries)

	v["watch.run_s"] = tr.total("watch.Run", nil).Seconds()
	w := p.watch.watch
	v["watch.epochs"] = float64(w.Epochs)
	v["watch.revisions"] = float64(w.Revisions)
	v["watch.epoch_s"] = v["watch.run_s"] / float64(w.Epochs)
	v["watch.publish_ratio"] = ratio(uint64(w.Revisions), uint64(w.Epochs))
	v["watch.speedup_pct"] = p.watch.speedup
	v["core.analyze_window_s"] = tr.total("core.Analyze.window", nil).Seconds() / float64(p.windows)
	v["core.tune_window_s"] = tr.total("core.TuneParallel.window", nil).Seconds() / float64(p.windows)

	for k, x := range modelled(p.modelled) {
		v[k] = x
	}

	reportDominant(b, tr, root, v)
	path := filepath.Join(workDir, "spans-"+runID+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "pipebench: %d spans written to %s\n", len(tr.spans), path)
	return v, out.ops, nil
}

// probed is what the probes measured beyond span times.
type probed struct {
	demandLines    int
	min            opt.Result
	analysis       *core.Analysis
	analyzeDecoded uint64
	best           *core.Plan
	pool           runner.Stats
	poolOwner      string
	sweep          []frontend.Result
	tunedSpeedup   float64
	watch          *passOut // the watcher's pass, or its probe
	windows        int      // watcher windows probed
	// modelled are the simulations the modelled-component metrics sum:
	// the sweep's own runs, or the tuned plan's run on plan and watch.
	modelled []frontend.Result
}

func probe(in *inputs, tr *tracer, out *passOut) (*probed, error) {
	p := &probed{
		analysis:       out.analysis,
		analyzeDecoded: out.analyzeDecoded,
		pool:           out.pool,
		sweep:          out.results,
	}
	if out.watch.Epochs > 0 {
		p.watch = out
	}
	// One strict decode pass over a fresh source.
	src := trace.FileSourceOptions(in.ptPath, in.prog, trace.FileOptions{})
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	end := tr.begin("trace.decode")
	seq := src.Open()
	n := 0
	for _, ok := seq.Next(); ok; _, ok = seq.Next() {
		n++
	}
	end()
	if err := seq.Err(); err != nil {
		return nil, fmt.Errorf("decode probe: %w", err)
	}
	if n != in.blocks {
		return nil, fmt.Errorf("decode probe: %d blocks, trace has %d", n, in.blocks)
	}
	blocks, err := blockseq.Collect(src)
	if err != nil {
		return nil, err
	}

	// Analyze's first steps, over the decoded blocks.
	end = tr.begin("frontend.DemandLines")
	lines, _, err := frontend.DemandLines(in.prog, blockseq.SliceSource(blocks))
	end()
	if err != nil {
		return nil, err
	}
	p.demandLines = len(lines)
	end = tr.begin("opt.SimulateSource")
	p.min, err = opt.SimulateSource(opt.LineEvents(lines), core.DefaultAnalysisConfig().L1I, opt.ModeMIN, true)
	end()
	if err != nil {
		return nil, err
	}
	lines = nil

	tuned, poolOwner := out.tuned, "core.TuneParallel"
	if out.watch.Epochs > 0 {
		poolOwner = "watch.Run"
	}
	if p.analysis == nil {
		dec0 := decodedBlocks(in.src)
		end = tr.begin("core.Analyze")
		p.analysis, err = core.Analyze(in.prog, in.src, core.DefaultAnalysisConfig())
		end()
		if err != nil {
			return nil, err
		}
		p.analyzeDecoded = decodedBlocks(in.src) - dec0
		pool := newPool()
		end = tr.begin("core.TuneParallel")
		tuned, err = core.TuneParallel(p.analysis, in.src, tuneConfig(), core.ParallelOptions{Pool: pool, SourceID: "probe"})
		end()
		if err != nil {
			return nil, err
		}
		if out.watch.Epochs == 0 {
			p.pool = pool.Stats()
		}
	}
	p.best, p.poolOwner, p.tunedSpeedup = tuned.BestPlan, poolOwner, tuned.BestPoint().SpeedupPct

	end = tr.begin("core.PlanAt")
	for _, th := range core.DefaultThresholds() {
		p.analysis.PlanAt(th)
	}
	end()
	end = tr.begin("program.ApplyPreservingLayout")
	p.best.ApplyPreservingLayout(in.prog)
	end()
	end = tr.begin("core.RunPlan", "plan", "baseline")
	_, err = core.RunPlan(in.prog, in.src, tuneConfig(), nil)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("core.RunPlan", "plan", "best")
	bestRun, err := core.RunPlan(in.prog, in.src, tuneConfig(), p.best)
	end()
	if err != nil {
		return nil, err
	}

	// One watcher epoch's work, on windows at the start, middle and end
	// of the trace; the metrics are per window.
	for i, off := range []int{0, (len(blocks) - watchWindow) / 2, len(blocks) - watchWindow} {
		win := blockseq.SliceSource(blocks[max(off, 0):min(off+watchWindow, len(blocks))])
		end = tr.begin("core.Analyze.window")
		wan, err := core.Analyze(in.prog, win, core.DefaultAnalysisConfig())
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("core.TuneParallel.window")
		_, err = core.TuneParallel(wan, win, tuneConfig(), core.ParallelOptions{Pool: newPool(), SourceID: fmt.Sprintf("probe-window-%d", i)})
		end()
		if err != nil {
			return nil, err
		}
		p.windows++
	}

	if p.sweep == nil {
		s, err := sweepPass(in, tr)
		if err != nil {
			return nil, err
		}
		p.sweep = s.results
		p.modelled = []frontend.Result{bestRun}
	} else {
		p.modelled = p.sweep
	}
	if p.watch == nil {
		// Two epochs keep the probe short; the metrics are per epoch.
		if p.watch, err = runWatch(in, tr, 2*watchWindow); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// modelled sums the simulated components' counters over a set of runs.
// They are exact: a change that only speeds the simulator up leaves them.
func modelled(rs []frontend.Result) map[string]float64 {
	var demand, late, useful, fills, hits, hintMiss, freed, decisions uint64
	var branch float64
	fdip := 0
	for _, r := range rs {
		s := r.L1I
		demand += s.DemandMisses
		late += r.LateMisses
		useful += s.PrefetchUseful
		fills += s.PrefetchFills
		hits += s.HintInvalidations
		hintMiss += s.HintMisses
		freed += s.HintFreedFills
		decisions += s.ReplacementDecisions
		if r.BranchMPKI > 0 { // only FDIP runs model the branch predictor
			branch += r.BranchMPKI
			fdip++
		}
	}
	m := map[string]float64{
		"cache.l1i_demand_misses":     float64(demand),
		"cache.prefetch_useful_ratio": ratio(useful, fills),
		"cache.hint_hit_ratio":        ratio(hits, hits+hintMiss),
		"cache.coverage":              ratio(freed, decisions),
		"frontend.late_misses":        float64(late),
		"bpred.branch_mpki":           0,
	}
	if fdip > 0 {
		m["bpred.branch_mpki"] = branch / float64(fdip)
	}
	return m
}

// childNamed finds a direct child of parent with the given name.
func childNamed(tr *tracer, parent span, name string) (span, bool) {
	for _, s := range tr.spans {
		if s.Parent == parent.ID && s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportDominant prints which layer took the largest share of the traced
// pass and whether that is the layer predicted. The watcher's epochs run
// inside watch.Run, out of the benchmark's sight; their analysis share is
// estimated as epochs x the window-analysis probe over the watcher's wall.
func reportDominant(b bench, tr *tracer, root span, v map[string]float64) {
	shares := map[string]float64{}
	if _, ok := childNamed(tr, root, "watch.Run"); ok {
		shares["core.Analyze"] = v["watch.epochs"] * v["core.analyze_window_s"] / root.dur().Seconds()
		shares["core.TuneParallel"] = v["watch.epochs"] * v["core.tune_window_s"] / root.dur().Seconds()
	} else {
		for _, s := range tr.spans {
			if s.Parent == root.ID {
				shares[s.Name] += s.dur().Seconds() / root.dur().Seconds()
			}
		}
	}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "pipebench: %s layer share %-28s %6.1f%%\n", b.name, n, 100*shares[n])
	}
	verdict := "confirmed"
	if len(names) == 0 {
		verdict = "WRONG: no layer was measured"
	} else if names[0] != b.dominant {
		verdict = "WRONG: the dominant layer is " + names[0]
	} else if math.Abs(shares[b.dominant]-b.dominantShare) > shareTolerance {
		verdict = "layer confirmed, share prediction WRONG"
	}
	fmt.Fprintf(os.Stderr, "pipebench: %s dominant layer predicted %s (~%.0f%%), measured %.1f%%: %s\n",
		b.name, b.dominant, 100*b.dominantShare, 100*shares[b.dominant], verdict)
}
