package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/trace"
	"ripple/internal/watch"
	"ripple/internal/workload"
)

// Sizes of the workloads' inputs and of the watcher's window. 500k kafka
// blocks is the ROADMAP's anchor input for rippleanalyze.
const (
	traceBlocks  = 500_000
	watchWindow  = 20_000
	poolWorkers  = 1 // a Group runs Workers+1 jobs at once: 2, the VM's nproc
	poolRetries  = 2 // the CLIs' -retries default
	setupRepeats = 15
)

// bench is one workload: the catalog application whose input it
// synthesizes, and the pipeline pass it times.
type bench struct {
	name string
	app  string
	pass func(in *inputs, tr *tracer) (*passOut, error)
	// dominant is the layer expected to take most of a pass, with its
	// expected share: the prediction the traced run checks.
	dominant      string
	dominantShare float64
	// evalPublished marks a pass that reports no MPKI of its own: the run
	// simulates its last published plan over the whole trace instead.
	evalPublished bool
}

var benches = []bench{
	{name: "plan-kafka", app: "kafka", pass: planPass, dominant: "core.Analyze", dominantShare: 0.80},
	{name: "sweep-drupal", app: "drupal", pass: sweepPass, dominant: "frontend.Run", dominantShare: 1.00},
	{name: "watch-kafka", app: "kafka", pass: watchPass, evalPublished: true, dominant: "core.Analyze", dominantShare: 0.65},
}

func benchByName(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// walkSeed perturbs the catalog model seed that the trace walker draws
// from; seed 0 leaves the catalog input unchanged. The program image is
// always the catalog's: perturbing the build seed changes the program
// itself, and with it every timing, by far more than any bound.
func walkSeed(catalog, seed uint64) uint64 { return catalog ^ seed*0x9E3779B97F4A7C15 }

// inputs is one workload's generated input, opened the way the CLIs open
// it: a program image loaded from disk and a memory-mapped trace source.
type inputs struct {
	dir              string
	progPath, ptPath string
	prog             *program.Program
	src              blockseq.Source
	blocks           int
	traceSHA         [32]byte
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	build, encode, load time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.encode + s.load }

// setup synthesizes the workload's input into dir, as ripplegen does, then
// loads the program and opens the trace, as rippleanalyze does.
func setup(b bench, seed uint64, dir string) (*inputs, setupTimes, error) {
	var st setupTimes
	m, ok := workload.ByName(b.app)
	if !ok {
		return nil, st, fmt.Errorf("unknown app %q", b.app)
	}
	t0 := time.Now()
	app, err := workload.Build(m)
	if err != nil {
		return nil, st, err
	}
	app.Model.Seed = walkSeed(m.Seed, seed)
	st.build = time.Since(t0)

	t0 = time.Now()
	in := &inputs{
		dir:      dir,
		progPath: filepath.Join(dir, b.app+".prog"),
		ptPath:   filepath.Join(dir, b.app+".pt"),
	}
	var prog bytes.Buffer
	if err := app.Prog.Save(&prog); err != nil {
		return nil, st, err
	}
	if err := os.WriteFile(in.progPath, prog.Bytes(), 0o644); err != nil {
		return nil, st, err
	}
	var pt bytes.Buffer
	stats, err := trace.EncodeSourceSync(&pt, app.Prog, app.Stream(0, traceBlocks), 0)
	if err != nil {
		return nil, st, err
	}
	if err := os.WriteFile(in.ptPath, pt.Bytes(), 0o644); err != nil {
		return nil, st, err
	}
	in.blocks = int(stats.Blocks)
	in.traceSHA = sha256.Sum256(pt.Bytes())
	st.encode = time.Since(t0)

	t0 = time.Now()
	f, err := os.Open(in.progPath)
	if err != nil {
		return nil, st, err
	}
	in.prog, err = program.Load(f)
	f.Close()
	if err != nil {
		return nil, st, err
	}
	in.src = trace.FileSourceOptions(in.ptPath, in.prog, trace.FileOptions{})
	// The header read maps the file: the source is open once it answers.
	if n, ok := blockseq.LenHint(in.src); !ok || n != in.blocks {
		return nil, st, fmt.Errorf("trace source declares %d blocks (ok=%v), encoder wrote %d", n, ok, in.blocks)
	}
	st.load = time.Since(t0)
	return in, st, nil
}

// close releases the trace source's shared file handle.
func (in *inputs) close() {
	if c, ok := in.src.(io.Closer); ok {
		c.Close()
	}
}

// op is one checked output: a plan, a simulated configuration, or a
// watcher run standing for its epochs. count is how many ops it stands for.
type op struct {
	key, value string
	count      int
}

// errValue starts the value of an op whose layer call failed.
const errValue = "error: "

func (o op) failed() bool { return strings.HasPrefix(o.value, errValue) }

// passOut is what one pipeline pass produced. The layer fields are kept
// only for the traced pass.
type passOut struct {
	ops []op
	// blocks is the work unit of blocks_per_s and B/block: trace blocks
	// for plan and watch, simulated blocks for the sweep.
	blocks uint64
	mpki   float64
	// speedup is the tuned plan's speedup, or the watcher's last
	// revision's predicted one.
	speedup float64
	// decoded counts blocks the pass's trace source decoded.
	decoded uint64

	analysis       *core.Analysis
	analyzeDecoded uint64
	tuned          *core.TuneResult
	pool           runner.Stats
	results        []frontend.Result
	watch          watch.Result
	lastRevision   *watch.Revision
}

// decodedBlocks reads the source's decode meter (0 if it has none).
func decodedBlocks(src blockseq.Source) uint64 {
	if c, ok := src.(trace.DecodeCounting); ok {
		return c.DecodedBlocks()
	}
	return 0
}

// tuneConfig is rippleanalyze's default tuning target: LRU under FDIP.
func tuneConfig() core.TuneConfig {
	return core.TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "fdip"}
}

func newPool() *runner.Pool {
	return runner.New(runner.Options{Workers: poolWorkers, Retries: poolRetries})
}

// planPass is rippleanalyze -j 1: analyze, tune over the default
// thresholds against LRU+FDIP, save the plan.
func planPass(in *inputs, tr *tracer) (*passOut, error) {
	out := &passOut{blocks: uint64(in.blocks)}
	fail := func(err error) (*passOut, error) {
		out.ops = []op{{key: "plan", count: 1, value: errValue + err.Error()}}
		return out, nil
	}
	dec0 := decodedBlocks(in.src)
	end := tr.begin("core.Analyze")
	an, err := core.Analyze(in.prog, in.src, core.DefaultAnalysisConfig())
	end()
	if err != nil {
		return fail(err)
	}
	out.analyzeDecoded = decodedBlocks(in.src) - dec0

	// rippleanalyze keys the sweep's store entries by the trace's hash.
	end = tr.begin("plan.source_digest")
	id, err := fileSHA(in.ptPath)
	end()
	if err != nil {
		return nil, err
	}
	pool := newPool()
	end = tr.begin("core.TuneParallel")
	tuned, err := core.TuneParallel(an, in.src, tuneConfig(), core.ParallelOptions{Pool: pool, SourceID: "pt:" + id})
	end()
	if err != nil {
		return fail(err)
	}
	end = tr.begin("core.Plan.Save")
	digest, err := savePlan(tuned.BestPlan, filepath.Join(in.dir, "plan"))
	end()
	if err != nil {
		return nil, err
	}
	out.decoded = decodedBlocks(in.src) - dec0
	bp := tuned.BestPoint()
	out.speedup, out.mpki = bp.SpeedupPct, bp.MPKI
	out.ops = []op{{key: "plan", count: 1, value: fmt.Sprintf(
		"digest=%s threshold=%g speedup=%g mpki=%g cues=%d instrs=%d covered=%d windows=%d ideal=%d blocks=%d",
		digest, bp.Threshold, bp.SpeedupPct, bp.MPKI, len(tuned.BestPlan.Injections), tuned.BestPlan.StaticInstructions(),
		tuned.BestPlan.WindowsCovered, an.Windows, an.IdealMisses, an.TraceBlocks)}}
	out.analysis, out.tuned, out.pool = an, tuned, pool.Stats()
	return out, nil
}

// sweepPass is ripplesim's evaluation path: every policy under every
// prefetcher, simulated serially over the trace, with no analysis.
func sweepPass(in *inputs, tr *tracer) (*passOut, error) {
	out := &passOut{}
	dec0 := decodedBlocks(in.src)
	var misses, instrs uint64
	for _, pol := range replacement.Names() {
		for _, pf := range prefetch.Names() {
			end := tr.begin("frontend.Run", "policy", pol, "prefetcher", pf)
			res, err := simulate(in, pol, pf)
			end()
			o := op{key: pol + "+" + pf, count: 1}
			if err != nil {
				o.value = errValue + err.Error()
				out.ops = append(out.ops, o)
				continue
			}
			o.value = fmt.Sprintf("cycles=%d instrs=%d misses=%d late=%d blocks=%d",
				res.Cycles, res.Instrs, res.L1I.DemandMisses, res.LateMisses, res.Blocks)
			out.ops = append(out.ops, o)
			out.results = append(out.results, res)
			out.blocks += res.Blocks
			misses += res.L1I.DemandMisses + res.LateMisses
			instrs += res.Instrs
		}
	}
	out.decoded = decodedBlocks(in.src) - dec0
	if instrs > 0 {
		out.mpki = float64(misses) / float64(instrs) * 1000
	}
	return out, nil
}

func simulate(in *inputs, pol, pf string) (frontend.Result, error) {
	p, err := replacement.New(pol)
	if err != nil {
		return frontend.Result{}, err
	}
	pre, err := prefetch.New(pf, in.prog)
	if err != nil {
		return frontend.Result{}, err
	}
	return frontend.Run(frontend.DefaultParams(), in.prog, in.src, frontend.Options{Policy: p, Prefetcher: pre})
}

// watchPass is ripplewatch -follow=false over the finished trace: one
// analysis and tuning sweep per epoch over the last window of blocks.
func watchPass(in *inputs, tr *tracer) (*passOut, error) {
	return runWatch(in, tr, 0)
}

// runWatch runs the watcher from a fresh state; maxBlocks > 0 stops it
// early (the probe on workloads that do not watch).
func runWatch(in *inputs, tr *tracer, maxBlocks uint64) (*passOut, error) {
	outDir := filepath.Join(in.dir, "revisions")
	state := filepath.Join(in.dir, "watch.ptwatch")
	if err := os.RemoveAll(outDir); err != nil {
		return nil, err
	}
	if err := os.Remove(state); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	pool := newPool()
	end := tr.begin("watch.Run")
	res, err := watch.Run(watch.Config{
		Prog:       in.prog,
		TracePath:  in.ptPath,
		StatePath:  state,
		OutDir:     outDir,
		Window:     watchWindow,
		Epoch:      watchWindow,
		MaxBlocks:  maxBlocks,
		Policy:     "lru",
		Prefetcher: "fdip",
		Pool:       pool,
		Tail:       watch.TailConfig{Follow: false},
	})
	end()
	epochs := in.blocks / watchWindow
	if maxBlocks > 0 {
		epochs = int(maxBlocks) / watchWindow
	}
	out := &passOut{blocks: uint64(in.blocks), decoded: res.Total, watch: res, pool: pool.Stats()}
	o := op{key: "watch", count: epochs}
	if err != nil {
		o.value = errValue + err.Error()
		out.ops = []op{o}
		return out, nil
	}
	h := sha256.New()
	for n := 1; n <= res.Revisions; n++ {
		raw, err := os.ReadFile(watch.RevisionPath(outDir, n))
		if err != nil {
			return nil, err
		}
		h.Write(raw)
	}
	if res.Revisions > 0 {
		rev, err := watch.ReadRevision(watch.RevisionPath(outDir, res.Revisions))
		if err != nil {
			return nil, err
		}
		out.lastRevision = rev
		out.speedup = rev.SpeedupPct
	}
	o.value = fmt.Sprintf("outcome=%s blocks=%d epochs=%d revisions=%d speedup=%g revs=%s",
		res.Outcome, res.Total, res.Epochs, res.Revisions, out.speedup, hex.EncodeToString(h.Sum(nil))[:16])
	out.ops = []op{o}
	return out, nil
}

// revisionPlan rebuilds the plan a watcher revision published.
func revisionPlan(rev *watch.Revision, prog *program.Program) *core.Plan {
	p := &core.Plan{Program: prog.Name, Threshold: rev.Threshold, Injections: map[program.BlockID][]uint64{}}
	for _, inj := range rev.Injections {
		p.Injections[inj.Block] = inj.Victims
	}
	return p
}

// savePlan writes the plan as rippleanalyze does and returns the SHA-256
// of the file, the digest the issue's expected output names.
func savePlan(p *core.Plan, path string) (string, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// check compares a pass's ops against the expected values and returns how
// many ops were attempted and how many failed, with one line per mismatch.
// An op whose layer call failed fails whatever want holds. An op missing
// from want, or a want entry the pass did not produce, fails too.
func check(want map[string]string, got []op) (attempted, failed int, diffs []string) {
	seen := make(map[string]bool, len(got))
	for _, o := range got {
		seen[o.key] = true
		attempted += o.count
		if w, ok := want[o.key]; !ok || w != o.value || o.failed() {
			failed += o.count
			diffs = append(diffs, fmt.Sprintf("%s: got %q, want %q", o.key, o.value, w))
		}
	}
	for k := range want {
		if !seen[k] {
			attempted++
			failed++
			diffs = append(diffs, fmt.Sprintf("%s: missing from the pass", k))
		}
	}
	return attempted, failed, diffs
}

// opValues maps a pass's ops by key, as expected.json holds them.
func opValues(ops []op) map[string]string {
	m := make(map[string]string, len(ops))
	for _, o := range ops {
		m[o.key] = o.value
	}
	return m
}
