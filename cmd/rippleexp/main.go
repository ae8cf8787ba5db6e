// Command rippleexp reproduces the paper's evaluation artifacts: every
// table and figure has an experiment ID (see -list), and `rippleexp -run
// all` regenerates the whole evaluation section.
//
// Simulations fan out across a worker pool (-j, default GOMAXPROCS);
// Ripple cells additionally fan their threshold-tuning sweeps out as
// sub-jobs on the same pool, and results are deterministic for any
// worker count. With -cachedir the
// results are also persisted content-addressed on disk, so a repeated or
// partially-overlapping invocation only simulates what changed; without
// it results are memoized in-process only.
//
// Usage:
//
//	rippleexp -list
//	rippleexp -run fig7
//	rippleexp -run all -blocks 600000 -apps finagle-http,verilator
//	rippleexp -run all -j 8 -cachedir ~/.cache/rippleexp
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ripple/internal/cliflag"
	"ripple/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the requested experiments, and returns the exit
// status: 2 for bad arguments, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rippleexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	runID := fs.String("run", "", "experiment ID to reproduce (or 'all')")
	check := fs.Bool("check", false, "after running, validate the paper's qualitative claims against the results")
	blocks := fs.Int("blocks", 0, "trace length in basic blocks (default 600000)")
	warmup := fs.Int("warmup", 0, "warmup blocks excluded from measurement (default blocks/3)")
	apps := fs.String("apps", "", "comma-separated application subset (default: all nine)")
	workers := fs.Int("j", 0, "number of parallel simulation workers (default GOMAXPROCS)")
	cachedir := fs.String("cachedir", "", "directory for the persistent result store (default: no persistence)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	jsonOut := fs.String("json", "", "write a JSON run summary (experiments + job-runner counters) to this path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiment.IDs() {
			desc, _ := experiment.Describe(id)
			fmt.Fprintf(stdout, "%-12s %s\n", id, desc)
		}
		return 0
	}
	if *runID == "" && !*check {
		fmt.Fprintln(stderr, "rippleexp: -run <id>, -check, or -list required")
		fs.Usage()
		return 2
	}

	// Leave unset fields zero: experiment.New centralizes the defaults.
	// Only flags the user actually passed override the config, so e.g.
	// `-apps x` does not silently reset the trace length.
	cfg := experiment.Config{Log: stderr, Workers: *workers, CacheDir: *cachedir}
	if cliflag.PassedIn(fs, "blocks") {
		cfg.TraceBlocks = *blocks
	}
	if cliflag.PassedIn(fs, "warmup") {
		cfg.WarmupBlocks = *warmup
	}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	if *quiet {
		cfg.Log = nil
	}
	suite := experiment.New(cfg)
	if *runID != "" {
		if err := suite.Run(*runID, stdout); err != nil {
			fmt.Fprintln(stderr, "rippleexp:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeSummary(*jsonOut, *runID, suite); err != nil {
			fmt.Fprintln(stderr, "rippleexp:", err)
			return 1
		}
	}
	if *check {
		fmt.Fprintln(stdout, "\nshape check (paper's qualitative claims):")
		violations, err := suite.ShapeCheck(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "rippleexp: check:", err)
			return 1
		}
		if len(violations) > 0 {
			fmt.Fprintf(stderr, "rippleexp: %d claim(s) violated\n", len(violations))
			return 1
		}
		fmt.Fprintln(stdout, "all claims hold")
	}
	return 0
}

// writeSummary emits the run's machine-readable wrap-up: which
// experiments ran and what the job runner did (simulated vs. served from
// store, transient retries, quarantined/recovered store entries).
func writeSummary(path, ran string, suite *experiment.Suite) error {
	st := suite.Stats()
	ids := []string{}
	if ran == "all" {
		ids = experiment.IDs()
	} else if ran != "" {
		ids = append(ids, ran)
	}
	summary := struct {
		Experiments []string
		Apps        []string
		Jobs        struct {
			Simulated   int64
			StoreHits   int64
			MemHits     int64
			Errors      int64
			Retries     int64
			Quarantined int64
			Recovered   int64
		}
	}{Experiments: ids, Apps: suite.Apps()}
	summary.Jobs.Simulated = st.Computed
	summary.Jobs.StoreHits = st.StoreHits
	summary.Jobs.MemHits = st.MemHits
	summary.Jobs.Errors = st.Errors
	summary.Jobs.Retries = st.Retries
	summary.Jobs.Quarantined = st.Quarantined
	summary.Jobs.Recovered = st.Recovered
	raw, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
