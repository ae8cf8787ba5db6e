// Command ripplesim drives a recorded trace through the simulated frontend
// under a chosen prefetcher and replacement policy, optionally with a
// Ripple injection plan applied, and reports the paper's metrics: IPC,
// MPKI, coverage, accuracy, and instruction overheads. A plan is placed
// the way rippleanalyze tuned it: into existing alignment padding and NOP
// slots, so no code byte moves.
//
// Comma-separated -policy/-prefetcher values sweep the cross product: the
// configurations simulate in parallel across -j workers and print one
// summary line each, in argument order. With -cachedir, sweep results
// persist in a content-addressed store keyed by the input file contents
// and the full configuration, so repeated sweeps only simulate what
// changed.
//
// With -ideal the run additionally reports the ideal (Demand-MIN) miss
// count for the exact access stream this configuration produced, via the
// exact two-pass streaming Belady engine.
//
// The trace is memory-mapped, or read through ReadAt where the platform
// cannot map it; the output is identical either way.
//
// Usage:
//
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -policy lru -prefetcher fdip
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -plan /tmp/fh.plan -accuracy
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -ideal
//	ripplesim -prog /tmp/fh.prog -pt /tmp/fh.pt -policy lru,srrip,drrip -prefetcher none,fdip -j 4 -cachedir /tmp/simcache
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ripple/internal/blockseq"
	"ripple/internal/cliflag"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/opt"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/trace"
)

func main() {
	var o options
	o.Trace.Register(flag.CommandLine, "program image to simulate (required)")
	flag.StringVar(&o.TraceProgPath, "trace-prog", "", "program image the trace was recorded against, when -prog is a rewritten image (default: -prog)")
	flag.StringVar(&o.PlanPath, "plan", "", "optional injection plan from rippleanalyze")
	flag.StringVar(&o.Policy, "policy", "lru", "replacement policy, or comma-separated list to sweep ("+strings.Join(replacement.Names(), ", ")+")")
	flag.StringVar(&o.Prefetcher, "prefetcher", "fdip", "prefetcher, or comma-separated list to sweep ("+strings.Join(prefetch.Names(), ", ")+")")
	flag.IntVar(&o.Warmup, "warmup", 0, "warmup blocks excluded from measurement")
	blocks := flag.Int("blocks", 0, "simulate only the first N trace blocks (default: whole trace)")
	flag.BoolVar(&o.Accuracy, "accuracy", false, "score replacement decisions against the Belady oracle")
	flag.BoolVar(&o.Ideal, "ideal", false, "also report the ideal (Demand-MIN) miss count for this configuration's access stream")
	flag.BoolVar(&o.Demote, "demote", false, "execute hints as LRU demotions instead of invalidations")
	flag.BoolVar(&o.JSON, "json", false, "emit machine-readable JSON instead of the report")
	flag.IntVar(&o.Workers, "j", 0, "parallel workers for sweep mode (default GOMAXPROCS)")
	flag.StringVar(&o.CacheDir, "cachedir", "", "persistent result store for sweep mode (default: none)")
	flag.Parse()

	// -blocks 0 legitimately means "simulate nothing", so "unset" must be
	// distinguished from the zero value (the flag.Visit discipline).
	o.Limit = -1
	if cliflag.Passed("blocks") {
		o.Limit = *blocks
	}
	o.Stdout, o.Stderr = os.Stdout, os.Stderr
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ripplesim:", err)
		os.Exit(1)
	}
}

// options carries one invocation's inputs; tests drive run directly.
type options struct {
	cliflag.Trace
	TraceProgPath, PlanPath string
	// Policy and Prefetcher are comma-separated; more than one value in
	// either sweeps the cross product.
	Policy, Prefetcher string
	// Limit caps the trace to its first Limit blocks; < 0 is the whole
	// trace.
	Limit, Warmup                 int
	Accuracy, Ideal, Demote, JSON bool
	Workers                       int
	CacheDir                      string
	// Stdout receives the report; Stderr the sweep's runner log. Nil
	// discards.
	Stdout, Stderr io.Writer
}

// config is the configuration of one run of o under policy and
// prefetcher.
func (o options) config(policy, prefetcher string) core.TuneConfig {
	hints := frontend.HintInvalidate
	if o.Demote {
		hints = frontend.HintDemote
	}
	return core.TuneConfig{
		Params:          frontend.DefaultParams(),
		Policy:          policy,
		Prefetcher:      prefetcher,
		Hints:           hints,
		MeasureAccuracy: o.Accuracy,
		WarmupBlocks:    o.Warmup,
	}
}

// run validates the options and simulates one configuration, or sweeps
// the policy x prefetcher cross product.
func run(o options) error {
	if o.Stdout == nil {
		o.Stdout = io.Discard
	}
	if o.Stderr == nil {
		o.Stderr = io.Discard
	}
	policies := strings.Split(o.Policy, ",")
	prefetchers := strings.Split(o.Prefetcher, ",")
	if slices.Contains(policies, "") || slices.Contains(prefetchers, "") {
		// An empty name would run the default (LRU, no prefetcher) under
		// no name at all.
		return fmt.Errorf("empty name in -policy %q or -prefetcher %q", o.Policy, o.Prefetcher)
	}
	if len(policies) > 1 || len(prefetchers) > 1 {
		if o.Ideal {
			return fmt.Errorf("-ideal is only available in single-configuration mode, not sweeps")
		}
		return sweep(o, policies, prefetchers)
	}
	return simulate(o)
}

// simulate runs one configuration and prints its report.
func simulate(o options) error {
	prog, tr, reporter, err := load(o)
	if err != nil {
		return err
	}
	w := o.Stdout
	var plan *core.Plan
	if o.PlanPath != "" {
		if plan, err = cliflag.LoadPlan(o.PlanPath, prog); err != nil {
			return err
		}
	}
	cfg := o.config(o.Policy, o.Prefetcher)
	res, err := core.RunPlan(prog, tr, cfg, plan)
	if err != nil {
		return err
	}

	// -ideal replays the run's exact access stream, re-simulated once per
	// oracle pass, through the Demand-MIN oracle: the lower bound any
	// replacement policy under the same prefetcher is compared against.
	var ideal *uint64
	if o.Ideal {
		r, err := opt.SimulateSource(core.AccessEvents(prog, tr, cfg, plan), cfg.Params.L1I, opt.ModeDemandMIN, false)
		if err != nil {
			return err
		}
		ideal = &r.DemandMisses
	}

	if o.JSON {
		return emitJSON(w, res, coverageOf(reporter), ideal)
	}
	if o.PlanPath != "" {
		fmt.Fprintf(w, "applied plan: %d invalidate instructions in %d cue blocks\n",
			plan.StaticInstructions(), len(plan.Injections))
	}
	fmt.Fprintf(w, "%s: %s prefetcher, %s replacement\n", res.Program, res.Prefetcher, res.Policy)
	printCoverage(w, reporter)
	fmt.Fprintf(w, "  instructions: %d (%d injected hints, %.2f%% dynamic overhead)\n",
		res.Instrs, res.HintInstrs, core.DynamicOverheadPct(res))
	fmt.Fprintf(w, "  cycles: %d  IPC: %.3f\n", res.Cycles, res.IPC())
	fmt.Fprintf(w, "  L1I MPKI: %.2f (misses %d, late prefetches %d, compulsory %d)\n",
		res.MPKI(), res.L1I.DemandMisses, res.LateMisses, res.Compulsory)
	fmt.Fprintf(w, "  miss breakdown: L2 %d, L3 %d, memory %d\n", res.L2Hits, res.L3Hits, res.MemFills)
	if res.L1I.HintInvalidations+res.L1I.Demotions > 0 {
		fmt.Fprintf(w, "  ripple: coverage %.1f%% (%d hint evictions, %d hints found no victim)\n",
			res.Coverage()*100, res.L1I.HintFreedFills, res.L1I.HintMisses)
	}
	if ideal != nil {
		fmt.Fprintf(w, "  ideal replacement (demand-min, exact): %d misses; this policy took %d\n", *ideal, res.L1I.DemandMisses)
	}
	if o.Accuracy {
		fmt.Fprintf(w, "  accuracy: policy %.1f%%", res.PolicyAccuracy()*100)
		if res.HintEvictions > 0 {
			fmt.Fprintf(w, ", ripple %.1f%%, combined %.1f%%", res.HintAccuracy()*100, res.CombinedAccuracy()*100)
		}
		fmt.Fprintln(w)
	}
	if res.BranchMPKI > 0 {
		fmt.Fprintf(w, "  branch MPKI: %.2f\n", res.BranchMPKI)
	}
	return nil
}

// sweep simulates every policy × prefetcher combination in parallel and
// prints one summary line per configuration, in argument order. Results
// are deterministic regardless of worker count; with a cache directory
// they are keyed by the SHA-256 of the input files plus the full
// configuration, so editing the trace or plan invalidates exactly the
// affected entries.
func sweep(o options, policies, prefetchers []string) error {
	prog, tr, reporter, err := load(o)
	if err != nil {
		return err
	}
	planHash := "none"
	var plan *core.Plan
	if o.PlanPath != "" {
		if plan, err = cliflag.LoadPlan(o.PlanPath, prog); err != nil {
			return err
		}
		if h, err := cliflag.FileDigest(o.PlanPath); err == nil {
			planHash = h
		}
	}
	progHash, err := cliflag.FileDigest(o.ProgPath)
	if err != nil {
		return err
	}
	ptHash, err := cliflag.FileDigest(o.PTPath)
	if err != nil {
		return err
	}
	base := fmt.Sprintf("rsim1|prog=%s|pt=%s|plan=%s|params=%+v|warmup=%d|acc=%t|demote=%t",
		progHash, ptHash, planHash, frontend.DefaultParams(), o.Warmup, o.Accuracy, o.Demote)
	if o.Limit >= 0 {
		// Appended only when -blocks was passed, so pre-existing store
		// entries for whole-trace sweeps stay addressable.
		base += fmt.Sprintf("|blocks=%d", o.Limit)
	}
	if o.Recover {
		// Likewise appended only with -recover: a clean trace decodes
		// identically in both modes, but a damaged one yields a different
		// (shorter) block sequence under the same file hash.
		base += "|recover=1"
	}
	if o.Warmup > 0 {
		// Branch MPKI used to count the warmup's mispredictions against
		// the measured instructions; entries stored before the fix must
		// not be served. Without a warmup the value never changed.
		base += "|bmpki=steady"
	}
	if o.PlanPath != "" {
		// Plans used to be simulated by full relayout, not in the padding
		// placement rippleanalyze tunes; entries stored then must not be
		// served.
		base += "|place=padding"
	}

	var store *runner.Store
	if o.CacheDir != "" {
		var err error
		if store, err = runner.OpenStore(o.CacheDir); err != nil {
			return err
		}
	}
	pool := runner.New(runner.Options{Workers: o.Workers, Store: store, Log: o.Stderr})
	var runs []core.Run
	for _, pol := range policies {
		for _, pf := range prefetchers {
			runs = append(runs, core.Run{Config: o.config(pol, pf), Plan: plan,
				Sig: fmt.Sprintf("%s|pol=%s|pf=%s", base, pol, pf), Label: pol + "/" + pf})
		}
	}
	results, err := core.RunBatch(prog, tr, runs, core.ParallelOptions{Pool: pool})
	if err != nil {
		return err
	}
	w := o.Stdout
	if !o.JSON {
		printCoverage(w, reporter)
	}
	var out []map[string]interface{}
	for i, res := range results {
		if o.JSON {
			out = append(out, withCoverage(resultJSON(res), coverageOf(reporter)))
			continue
		}
		cfg := runs[i].Config
		fmt.Fprintf(w, "%-10s %-10s IPC %.3f  MPKI %6.2f  cycles %d\n",
			cfg.Policy, cfg.Prefetcher, res.IPC(), res.MPKI(), res.Cycles)
	}
	if o.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	return nil
}

// emitJSON writes the run's metrics as a single JSON object, for scripted
// consumers (dashboards, regression checks).
func emitJSON(w io.Writer, res frontend.Result, cov *trace.DecodeReport, ideal *uint64) error {
	m := withCoverage(resultJSON(res), cov)
	if ideal != nil {
		m["ideal_misses"] = *ideal
		m["ideal_engine"] = "exact" // one engine now; kept for -json consumers
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// coverageOf extracts the decode report a recovering source published
// after the simulation's passes; nil otherwise.
func coverageOf(reporter trace.Reporting) *trace.DecodeReport {
	if reporter == nil {
		return nil
	}
	rep, ok := reporter.DecodeReport()
	if !ok {
		return nil
	}
	return &rep
}

// withCoverage adds the -recover decode accounting to a JSON result; the
// schema is unchanged when not recovering.
func withCoverage(m map[string]interface{}, cov *trace.DecodeReport) map[string]interface{} {
	if cov != nil {
		m["trace_coverage"] = cov.Coverage()
		m["trace_blocks_lost"] = cov.BlocksLost()
		m["trace_damage_regions"] = len(cov.Regions)
	}
	return m
}

// printCoverage reports trace damage on the human-readable path.
func printCoverage(w io.Writer, reporter trace.Reporting) {
	cov := coverageOf(reporter)
	if cov == nil {
		return
	}
	fmt.Fprintf(w, "  trace coverage: %.2f%% of declared profile (%d of %d blocks", cov.Coverage()*100, cov.Decoded, cov.Declared)
	if len(cov.Regions) > 0 {
		fmt.Fprintf(w, "; %d damaged regions, %d blocks lost", len(cov.Regions), cov.BlocksLost())
	}
	fmt.Fprintln(w, ")")
}

// resultJSON flattens a result into the JSON schema emitJSON documents.
func resultJSON(res frontend.Result) map[string]interface{} {
	return map[string]interface{}{
		"program":           res.Program,
		"policy":            res.Policy,
		"prefetcher":        res.Prefetcher,
		"instructions":      res.Instrs,
		"hint_instructions": res.HintInstrs,
		"cycles":            res.Cycles,
		"ipc":               res.IPC(),
		"mpki":              res.MPKI(),
		"demand_misses":     res.L1I.DemandMisses,
		"late_prefetches":   res.LateMisses,
		"compulsory_misses": res.Compulsory,
		"l2_hits":           res.L2Hits,
		"l3_hits":           res.L3Hits,
		"memory_fills":      res.MemFills,
		"coverage":          res.Coverage(),
		"hint_accuracy":     res.HintAccuracy(),
		"policy_accuracy":   res.PolicyAccuracy(),
		"combined_accuracy": res.CombinedAccuracy(),
		"dynamic_overhead":  core.DynamicOverheadPct(res),
		"branch_mpki":       res.BranchMPKI,
	}
}

// load reads the simulation image and wires up a streaming source that
// decodes the trace against the image it was recorded on, -trace-prog
// when given (block IDs are stable across rewriting, so the block
// sequence transfers). The trace is never materialized: each simulation
// pass re-decodes the file, keeping memory O(1) in the trace length.
// Limit >= 0 caps the source to the first Limit blocks. The reporter is
// the cliflag.Trace loader's: non-nil only with -recover.
func load(o options) (*program.Program, blockseq.Source, trace.Reporting, error) {
	if o.ProgPath == "" || o.PTPath == "" {
		return nil, nil, nil, fmt.Errorf("-prog and -pt are required")
	}
	t := o.Trace
	if o.TraceProgPath != "" {
		t.ProgPath = o.TraceProgPath
	}
	decodeProg, src, reporter, err := t.Load()
	if err != nil {
		return nil, nil, nil, err
	}
	prog := decodeProg
	if t.ProgPath != o.ProgPath {
		if prog, err = cliflag.LoadProgram(o.ProgPath); err != nil {
			return nil, nil, nil, err
		}
		if decodeProg.NumBlocks() != prog.NumBlocks() {
			return nil, nil, nil, fmt.Errorf("-trace-prog has %d blocks, -prog has %d: not the same program", decodeProg.NumBlocks(), prog.NumBlocks())
		}
	}
	if o.Limit >= 0 {
		src = blockseq.Limit(src, o.Limit)
	}
	return prog, src, reporter, nil
}
