package watch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/runner"
)

// Config shapes one watcher run.
type Config struct {
	// Prog is the program the trace was recorded against.
	Prog *program.Program
	// TracePath is the growing trace file to tail.
	TracePath string
	// StatePath is the checkpoint sidecar (default TracePath+".ptwatch").
	StatePath string
	// OutDir receives plan-%05d.json revision files.
	OutDir string

	// Window is the rolling analysis window W in blocks (default 2048):
	// each epoch re-analyzes the last W blocks.
	Window int
	// Epoch is the analysis cadence E in blocks (default Window): an
	// epoch runs whenever the absolute block count is a multiple of E.
	// Anchoring epochs to absolute counts (not to wall-clock or to
	// where a pass happened to start) is what makes a restarted watcher
	// replay the identical epoch sequence.
	Epoch int
	// CheckpointEvery is the checkpoint cadence in blocks (default
	// Epoch). On a shared boundary the epoch runs first, so a checkpoint
	// never skips an epoch's effects.
	CheckpointEvery int
	// MaxBlocks pauses the run once the absolute block count reaches it
	// (0 = unlimited). A paused run checkpoints and returns; a later run
	// resumes. Tests use it to stop a watcher at exact points.
	MaxBlocks uint64

	// Threshold fixes the invalidation threshold; 0 sweeps per epoch.
	Threshold float64
	// Hysteresis is the minimum predicted-speedup shift (percentage
	// points) a differing candidate plan needs before it can displace
	// the published one (default 0.5).
	Hysteresis float64
	// Stable is how many consecutive epochs the shift must hold before
	// revision N+1 publishes (default 2).
	Stable int

	// Policy/Prefetcher/Warmup configure the per-epoch tuning sweep
	// (defaults lru/fdip/0).
	Policy, Prefetcher string
	Warmup             int
	// Params is the simulated machine; the zero value means
	// frontend.DefaultParams(). The analysis cache geometry follows
	// Params.L1I.
	Params frontend.Params

	// Pool runs the sweep's simulations; nil creates one with no result
	// store. The runs are unsigned, so the pool neither keeps nor stores
	// them: a window is never asked for again, and the watcher's memory
	// does not grow with its epochs.
	Pool *runner.Pool

	// Tail configures the file-tailing layer.
	Tail TailConfig

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() (Config, error) {
	if c.Prog == nil || c.TracePath == "" || c.OutDir == "" {
		return c, fmt.Errorf("watch: Prog, TracePath, and OutDir are required")
	}
	if c.StatePath == "" {
		c.StatePath = c.TracePath + ".ptwatch"
	}
	if c.Window <= 0 {
		c.Window = 2048
	}
	if c.Epoch <= 0 {
		c.Epoch = c.Window
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = c.Epoch
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.5
	}
	if c.Stable <= 0 {
		c.Stable = 2
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return c, fmt.Errorf("watch: threshold %v outside [0, 1]", c.Threshold)
	}
	if c.Policy == "" {
		c.Policy = "lru"
	}
	if c.Prefetcher == "" {
		c.Prefetcher = "fdip"
	}
	if c.Params == (frontend.Params{}) {
		c.Params = frontend.DefaultParams()
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c, nil
}

// Outcome classifies how a watcher run ended.
type Outcome string

const (
	// OutcomeComplete: the stream's END packet arrived — the writer
	// finished the trace.
	OutcomeComplete Outcome = "complete"
	// OutcomeStalled: no new bytes within the stall window.
	OutcomeStalled Outcome = "stalled"
	// OutcomeRotated: the trace file was rotated under the tail.
	OutcomeRotated Outcome = "rotated"
	// OutcomeCanceled: the Done channel closed (e.g. SIGTERM).
	OutcomeCanceled Outcome = "canceled"
	// OutcomePaused: MaxBlocks was reached.
	OutcomePaused Outcome = "paused"
)

// Result summarizes a watcher run. Whatever the outcome, a final
// checkpoint was written: the next run resumes from it.
type Result struct {
	Outcome Outcome
	// Err is the underlying interrupt error for stalled/rotated/canceled.
	Err error
	// Resumed reports that this run continued from a valid checkpoint.
	Resumed bool
	// Total/Epochs/Revisions/Regions are the state counters at exit.
	Total     uint64
	Epochs    int
	Revisions int
	Regions   int
}

// Run tails the trace, analyzes a rolling window each epoch, publishes
// plan revisions with hysteresis, and checkpoints its position. It
// returns when the stream completes, stalls, rotates, is canceled, or
// reaches MaxBlocks; every exit path writes a final checkpoint first.
//
// Replay equivalence: for a fixed final trace byte stream, the sequence
// of published revision files is a deterministic function of the
// configuration and the absolute block positions — independent of burst
// timing, restarts, or worker counts. A watcher killed at any checkpoint
// and restarted produces the same revision tail, byte for byte.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	w := &watcher{cfg: cfg}
	return w.run()
}

type watcher struct {
	cfg Config
	st  *State
	seq *TailSeq

	pool *runner.Pool

	// regionSet dedupes damage regions by offset across restarts;
	// knownRegions tracks how much of the pass's region list has been
	// folded into the state.
	regionSet    map[int64]bool
	knownRegions int

	// prefix binds each checkpoint to the trace bytes read so far.
	prefix prefixHasher
	// ckpt holds the sealed checkpoint while it is written.
	ckpt bytes.Buffer
}

func (w *watcher) logf(format string, args ...any) {
	fmt.Fprintf(w.cfg.Log, format+"\n", args...)
}

func (w *watcher) run() (Result, error) {
	res := Result{}
	src := NewTailSource(w.cfg.TracePath, w.cfg.Prog, w.cfg.Tail)
	w.seq = src.OpenTail()
	defer w.seq.Close()

	w.st = w.loadState()
	res.Resumed = w.st.Total > 0
	if res.Resumed {
		if err := w.seq.Restore(w.st.Mark); err != nil {
			// A validated checkpoint with an unusable mark should not
			// happen; recover by starting fresh rather than wedging.
			w.logf("watch: checkpoint mark rejected (%v); starting fresh", err)
			w.seq.Close()
			w.seq = src.OpenTail()
			w.st = &State{}
			res.Resumed = false
		} else {
			w.logf("watch: resumed at block %d (epoch %d, revision %d)", w.st.Total, w.st.Epoch, w.st.Revision)
		}
	}
	w.regionSet = make(map[int64]bool)
	for _, reg := range w.st.Regions {
		w.regionSet[reg.Offset] = true
	}

	w.pool = w.cfg.Pool
	if w.pool == nil {
		w.pool = runner.New(runner.Options{})
	}

	var epochErr error
	for {
		if w.cfg.MaxBlocks > 0 && w.st.Total >= w.cfg.MaxBlocks {
			res.Outcome = OutcomePaused
			break
		}
		bid, ok := w.seq.Next()
		if !ok {
			res.Outcome, res.Err = classify(w.seq.Err())
			break
		}
		w.st.Total++
		w.push(bid)
		w.scanRegions()
		if w.st.Total%uint64(w.cfg.Epoch) == 0 {
			if epochErr = w.runEpoch(); epochErr != nil {
				break
			}
		}
		if w.st.Total%uint64(w.cfg.CheckpointEvery) == 0 {
			if err := w.checkpoint(); err != nil {
				w.logf("watch: checkpoint failed: %v", err)
			}
		}
	}
	w.scanRegions() // end-of-stream damage (early END) surfaces at pass end

	if epochErr != nil {
		// The epoch did not complete; leaving the previous checkpoint in
		// place makes the next run re-consume from before the boundary
		// and re-run the epoch.
		return res, epochErr
	}
	if res.Outcome == outcomeFailed {
		return res, res.Err
	}
	if err := w.checkpoint(); err != nil {
		return res, fmt.Errorf("watch: final checkpoint: %w", err)
	}
	if res.Outcome == "" {
		res.Outcome = OutcomeComplete
	}
	res.Total = w.st.Total
	res.Epochs = w.st.Epoch
	res.Revisions = w.st.Revision
	res.Regions = len(w.st.Regions)
	w.logf("watch: %s at block %d (%d epochs, %d revisions, %d damaged regions)",
		res.Outcome, res.Total, res.Epochs, res.Revisions, res.Regions)
	return res, nil
}

// classify maps a pass-ending error to an outcome. A nil error is the
// clean end of the stream.
func classify(err error) (Outcome, error) {
	switch {
	case err == nil:
		return OutcomeComplete, nil
	case errors.Is(err, ErrStalled):
		return OutcomeStalled, err
	case errors.Is(err, ErrRotated):
		return OutcomeRotated, err
	case errors.Is(err, ErrCanceled):
		return OutcomeCanceled, err
	default:
		// Recovery decoding resyncs past damage, so other errors are
		// limited to unusable inputs (e.g. a header that never parses).
		return outcomeFailed, err
	}
}

// outcomeFailed marks a pass that died on an unusable input; Run turns
// it into a returned error rather than a Result.
const outcomeFailed Outcome = "failed"

// loadState loads and validates the checkpoint; any problem (absent,
// corrupt, stale) means a fresh start.
func (w *watcher) loadState() *State {
	st, err := LoadState(w.cfg.StatePath)
	if err != nil {
		if !os.IsNotExist(err) {
			w.logf("watch: ignoring checkpoint: %v", err)
		}
		return &State{}
	}
	if err := st.Validate(w.cfg.TracePath); err != nil {
		w.logf("watch: discarding checkpoint: %v", err)
		return &State{}
	}
	return st
}

// push appends a block to the rolling window, trimming it to W once it
// holds 2W (an amortized copy).
func (w *watcher) push(bid program.BlockID) {
	w.st.Window = append(w.st.Window, bid)
	if len(w.st.Window) > 2*w.cfg.Window {
		w.trim()
	}
}

// trim drops the window's blocks before the last W.
func (w *watcher) trim() {
	n := copy(w.st.Window, w.window())
	w.st.Window = w.st.Window[:n]
}

// window returns the current analysis window (the last <= W blocks).
func (w *watcher) window() []program.BlockID {
	win := w.st.Window
	if len(win) > w.cfg.Window {
		win = win[len(win)-w.cfg.Window:]
	}
	return win
}

// scanRegions folds newly observed damage into the state and moves the
// window-taint marker. Regions the pass re-detected after a restore are
// already in the set and do not re-taint.
func (w *watcher) scanRegions() {
	n := w.seq.RegionCount()
	if n == w.knownRegions {
		return
	}
	for _, reg := range w.seq.Regions()[w.knownRegions:] {
		if w.regionSet[reg.Offset] {
			continue
		}
		w.regionSet[reg.Offset] = true
		w.st.Regions = append(w.st.Regions, reg)
		w.st.DamageEver = true
		w.st.LastDamageTotal = w.st.Total
		w.logf("watch: damage at offset %d (resume %d): %s", reg.Offset, reg.Resume, reg.Reason)
	}
	w.knownRegions = n
}

// windowDamaged reports whether the analysis window still overlaps
// damage: fewer than W blocks have arrived since the last region.
func (w *watcher) windowDamaged() bool {
	return w.st.DamageEver && w.st.Total-w.st.LastDamageTotal < uint64(w.cfg.Window)
}

// runEpoch re-analyzes the rolling window, scores the best plan, and
// feeds the hysteresis ratchet. The analysis and the sweep read the
// window in place: no block arrives until the epoch is over.
func (w *watcher) runEpoch() error {
	w.st.Epoch++
	win := w.window()
	if len(win) == 0 {
		return nil
	}
	src := blockseq.SliceSource(win)
	acfg := core.DefaultAnalysisConfig()
	acfg.L1I = w.cfg.Params.L1I
	analysis, err := core.Analyze(w.cfg.Prog, src, acfg)
	if err != nil {
		return fmt.Errorf("watch: epoch %d analysis: %w", w.st.Epoch, err)
	}
	tcfg := core.TuneConfig{
		Params:       w.cfg.Params,
		Policy:       w.cfg.Policy,
		Prefetcher:   w.cfg.Prefetcher,
		WarmupBlocks: w.cfg.Warmup,
	}
	if w.cfg.Threshold > 0 {
		tcfg.Thresholds = []float64{w.cfg.Threshold}
	}
	tuned, err := core.TuneParallel(analysis, src, tcfg, core.ParallelOptions{Pool: w.pool})
	if err != nil {
		return fmt.Errorf("watch: epoch %d tuning: %w", w.st.Epoch, err)
	}
	return w.consider(tuned)
}

// consider feeds one epoch's winning plan into the hysteresis state
// machine. Revision 1 publishes immediately; after that a candidate that
// differs from the published plan must shift the predicted speedup by at
// least Hysteresis percentage points for Stable consecutive epochs. A
// candidate identical to the published plan re-baselines the published
// score, so slow drift cannot accumulate into a phantom shift.
func (w *watcher) consider(tuned *core.TuneResult) error {
	point := tuned.BestPoint()
	plan := tuned.BestPlan
	digest, err := plan.Digest()
	if err != nil {
		return err
	}
	st := w.st
	switch {
	case st.Revision == 0:
		return w.publish(point, plan, digest)
	case digest == st.PublishedHash:
		st.Pending = 0
		st.PublishedScore = point.SpeedupPct
	case math.Abs(point.SpeedupPct-st.PublishedScore) >= w.cfg.Hysteresis:
		st.Pending++
		if st.Pending >= w.cfg.Stable {
			return w.publish(point, plan, digest)
		}
		w.logf("watch: epoch %d candidate %+.2f%% vs published %+.2f%% (pending %d/%d)",
			st.Epoch, point.SpeedupPct, st.PublishedScore, st.Pending, w.cfg.Stable)
	default:
		st.Pending = 0
	}
	return nil
}

// publish writes the next plan revision.
func (w *watcher) publish(point core.ThresholdPoint, plan *core.Plan, digest string) error {
	st := w.st
	st.Revision++
	st.Pending = 0
	st.PublishedScore = point.SpeedupPct
	st.PublishedHash = digest
	cov := Coverage{
		Declared:      w.seq.Declared(),
		Decoded:       st.Total,
		Regions:       len(st.Regions),
		WindowDamaged: w.windowDamaged(),
	}
	rev, err := newRevision(st.Revision, st.Epoch, st.Total, point, plan, cov)
	if err != nil {
		return err
	}
	path, err := rev.Write(w.cfg.OutDir)
	if err != nil {
		return fmt.Errorf("watch: publish revision %d: %w", st.Revision, err)
	}
	w.logf("watch: revision %d epoch %d blocks %d speedup %+.2f%% plan %.12s -> %s",
		st.Revision, st.Epoch, st.Total, point.SpeedupPct, digest, path)
	return nil
}

// checkpoint persists the current state, binding it to the trace content
// read so far. It saves the window's last W blocks, all an epoch reads.
func (w *watcher) checkpoint() error {
	w.trim()
	w.st.Mark = w.seq.Checkpoint()
	w.st.Declared = w.seq.Declared()
	// Bind the full prefix consumed so far: in an append-only trace these
	// bytes never change, so any mismatch on reload means rotation.
	fi, err := os.Stat(w.cfg.TracePath)
	if err != nil {
		return err
	}
	n := fi.Size()
	sum, err := w.prefix.sum(w.cfg.TracePath, n)
	if err != nil {
		return err
	}
	w.st.PrefixLen, w.st.PrefixSHA = n, sum
	return saveState(w.cfg.StatePath, w.st, &w.ckpt)
}
