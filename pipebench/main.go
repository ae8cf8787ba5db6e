// Command pipebench is the repository's benchmark. It times the Ripple
// pipeline the way the CLIs run it, by calling the same public functions
// in the same order, on inputs it synthesizes from a seed:
//
//	plan-kafka    rippleanalyze -j 1 on a 500k-block kafka trace
//	sweep-drupal  ripplesim over 10 policies x 4 prefetchers, serially
//	watch-kafka   ripplewatch -follow=false with 20k-block epochs
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash pipebench/run.sh --workload plan-kafka --seed 0 --seconds 20 --trace 0
//
// A run sets the input up several times, then repeats the workload's
// pass for at least --seconds and at least three passes, checking every
// pass's outputs. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it adds one traced pass and the layer probes and prints the
// per-layer metrics. The last line of standard output is a JSON object
// with keys correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ripple/internal/core"
)

// minPasses keeps a median meaningful when a pass is long.
const minPasses = 3

// workDir holds a run's inputs and outputs, below the directory the
// benchmark is run from.
var workDir = filepath.Join(".bench_build", "pipebench")

//go:embed expected.json
var expectedJSON []byte

func main() {
	name := flag.String("workload", "", "workload: plan-kafka, sweep-drupal or watch-kafka")
	seed := flag.Uint64("seed", 0, "input seed; 0 is the catalog input expected.json was recorded on")
	seconds := flag.Int("seconds", 20, "length of the timed phase; at least three passes run")
	traceFlag := flag.Int("trace", 0, "1 adds a traced pass and the layer probes and prints the per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "pipebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// expected returns the committed outputs of a workload on the default
// seed, keyed by op.
func expected(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[workload], nil
}

// tally accumulates the checked ops of a run.
type tally struct {
	attempted, failed int
	ref               map[string]string
	// learn marks a seed with no committed outputs: each op's first
	// error-free value becomes its reference, which every later pass, the
	// traced one included, must repeat.
	learn bool
}

// add checks one pass's ops. The reference is expected.json on the
// default seed. An op whose layer call failed is never taken as a
// reference, so an error fails on every pass of every seed.
func (t *tally) add(label string, ops []op) {
	if t.learn {
		for _, o := range ops {
			if _, ok := t.ref[o.key]; !ok && !o.failed() {
				t.ref[o.key] = o.value
			}
		}
	}
	a, f, diffs := check(t.ref, ops)
	t.attempted += a
	t.failed += f
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "pipebench: %s: mismatch: %s\n", label, d)
	}
}

func run(name string, seed uint64, length time.Duration, traced bool) (*result, error) {
	b, ok := benchByName(name)
	if !ok {
		var names []string
		for _, b := range benches {
			names = append(names, b.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	t := tally{ref: map[string]string{}, learn: seed != 0}
	if seed == 0 {
		want, err := expected(name)
		if err != nil {
			return nil, err
		}
		t.ref = want
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, setups, err := setupRepeated(b, seed, dir)
	if err != nil {
		return nil, err
	}
	defer in.close()

	var walls, cpus, allocs []float64
	var last *passOut
	start := time.Now()
	for pass := 1; pass <= minPasses || time.Since(start) < length; pass++ {
		runtime.GC()
		a0, c0, t0 := heapAllocBytes(), cpuTime(), time.Now()
		out, err := b.pass(in, nil)
		wall, cpu, alloc := time.Since(t0), cpuTime()-c0, heapAllocBytes()-a0
		if err != nil {
			return nil, err
		}
		t.add(fmt.Sprintf("pass %d", pass), out.ops)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		allocs = append(allocs, float64(alloc)/float64(out.blocks))
		fmt.Fprintf(os.Stderr, "pipebench: %s pass %d: wall %.3fs cpu %.3fs alloc %.0f B/block\n",
			name, pass, wall.Seconds(), cpu.Seconds(), allocs[len(allocs)-1])
		out.analysis, out.tuned, out.results = nil, nil, nil
		last = out
	}
	peakRSS := peakRSSMiB()
	if seed == 0 && t.failed > 0 {
		entry, _ := json.MarshalIndent(map[string]map[string]string{name: opValues(last.ops)}, "", "  ")
		fmt.Fprintf(os.Stderr, "pipebench: expected.json entry for this build:\n%s\n", entry)
	}

	vals := map[string]float64{
		"wall_s":                median(walls),
		"blocks_per_s":          float64(last.blocks) / median(walls),
		"cpu_s":                 median(cpus),
		"peak_rss_mb":           peakRSS,
		"alloc_bytes_per_block": median(allocs),
		"setup_s":               medianSetup(setups, setupTimes.total),
		"mpki":                  last.mpki,
	}
	if b.evalPublished {
		if err := evalPublished(in, last, vals); err != nil {
			return nil, err
		}
	}
	defs := endToEnd
	if traced {
		lv, ops, err := layers(b, in, setups, median(walls), fmt.Sprintf("%s-seed%d", name, seed))
		if err != nil {
			return nil, err
		}
		t.add("traced pass", ops)
		vals, defs = lv, perLayer
	}
	metrics, missing := fill(defs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	printTable(os.Stderr, defs, metrics)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}

// evalPublished simulates the watcher's last published plan over the
// whole trace under the tuning target, untimed, and records its MPKI. No
// revision means no plan.
func evalPublished(in *inputs, last *passOut, vals map[string]float64) error {
	var plan *core.Plan
	if last.lastRevision != nil {
		plan = revisionPlan(last.lastRevision, in.prog)
	}
	res, err := core.RunPlan(in.prog, in.src, tuneConfig(), plan)
	if err != nil {
		return fmt.Errorf("evaluating the published plan: %w", err)
	}
	vals["mpki"] = res.MPKI()
	return nil
}

// setupRepeated sets the input up setupRepeats times, so setup_s is a
// median, and checks that every repetition wrote the same trace.
func setupRepeated(b bench, seed uint64, dir string) (*inputs, []setupTimes, error) {
	var in *inputs
	var setups []setupTimes
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		next, st, err := setup(b, seed, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if in != nil {
			in.close()
			if next.traceSHA != in.traceSHA {
				next.close()
				return nil, nil, fmt.Errorf("set-up %d wrote a different trace than set-up 1", i+1)
			}
		}
		in = next
		setups = append(setups, st)
	}
	var ms []string
	for _, st := range setups {
		ms = append(ms, fmt.Sprintf("%.1f", st.total().Seconds()*1000))
	}
	fmt.Fprintf(os.Stderr, "pipebench: %s set-ups (ms): %s\n", b.name, strings.Join(ms, " "))
	return in, setups, nil
}

func medianSetup(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s).Seconds()
	}
	return median(xs)
}

// printTable writes the metrics, one per line, for a reader of the log.
func printTable(w io.Writer, defs []metricDef, m map[string]metricValue) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
