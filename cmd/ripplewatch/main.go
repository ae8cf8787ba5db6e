// Command ripplewatch is the continuous-profiling half of Ripple: it
// tails a growing PT trace, re-analyzes a rolling window of recent
// blocks each epoch, and publishes versioned injection-plan revisions
// with hysteresis, checkpointing its position so a crashed or restarted
// watcher resumes without re-decoding the prefix.
//
// Usage:
//
//	ripplewatch -prog /tmp/fh.prog -pt /tmp/fh.pt -out /tmp/plans
//
// The watcher follows the trace file like tail -f, reading through
// ReadAt (a memory mapping is a fixed-size snapshot and cannot follow a
// growing file): clean truncation at the live edge is "wait for the
// writer", mid-stream corruption resynchronizes at the next sync point
// and is accounted in every revision's coverage block. A checkpoint sidecar (-state, default
// <pt>.ptwatch) binds the consumed prefix by content hash; restarting
// against the same stream resumes and publishes the identical revision
// tail, byte for byte. SIGINT/SIGTERM stop the tail, flush a final
// checkpoint, and exit 0. A rotated trace (fresh inode under the same
// path) restarts the watcher fresh against the new stream.
//
// Revisions land in -out as plan-NNNNN.json; each carries the plan
// digest, predicted speedup, and the coverage accounting for the window
// it was derived from. Each epoch's simulations run once and are kept
// nowhere: no window is asked for twice, so the watcher's memory and
// disk use stay flat however long it runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ripple/internal/cliflag"
	"ripple/internal/prefetch"
	"ripple/internal/replacement"
	"ripple/internal/runner"
	"ripple/internal/watch"
)

func main() {
	var o options
	flag.StringVar(&o.ProgPath, "prog", "", "program image from ripplegen (required)")
	flag.StringVar(&o.PTPath, "pt", "", "PT trace to tail (required)")
	flag.StringVar(&o.OutDir, "out", "", "directory receiving plan-NNNNN.json revisions (required)")
	flag.StringVar(&o.StatePath, "state", "", "checkpoint sidecar path (default <pt>.ptwatch)")
	flag.IntVar(&o.Window, "window", 0, "rolling analysis window in blocks (default 2048)")
	flag.IntVar(&o.Epoch, "epoch", 0, "blocks between re-analyses (default: window)")
	flag.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "blocks between checkpoints (default: epoch)")
	flag.Uint64Var(&o.MaxBlocks, "max-blocks", 0, "pause after this many total blocks (0 = unlimited)")
	flag.Float64Var(&o.Threshold, "threshold", 0, "invalidation threshold; 0 sweeps per epoch")
	flag.Float64Var(&o.Hysteresis, "hysteresis", 0, "min predicted-speedup shift (pct points) to displace the published plan (default 0.5)")
	flag.IntVar(&o.Stable, "stable", 0, "consecutive shifted epochs before publishing (default 2)")
	flag.StringVar(&o.Policy, "policy", "lru", "underlying replacement policy to tune against ("+strings.Join(replacement.Names(), ", ")+")")
	flag.StringVar(&o.Prefetcher, "prefetcher", "fdip", "prefetcher to tune against ("+strings.Join(prefetch.Names(), ", ")+")")
	flag.IntVar(&o.Warmup, "warmup", 0, "warmup blocks excluded from tuning measurements")
	flag.BoolVar(&o.Follow, "follow", true, "keep tailing at end-of-file; -follow=false processes the current snapshot and exits")
	flag.DurationVar(&o.Poll, "poll", 0, "base poll interval for a quiet file (default 2ms)")
	flag.DurationVar(&o.MaxPoll, "max-poll", 0, "poll backoff ceiling (default 250ms)")
	flag.DurationVar(&o.Stall, "stall", 0, "give up after this long without new bytes (0 = wait forever)")
	flag.IntVar(&o.Workers, "j", 0, "parallel epoch simulations (default GOMAXPROCS)")
	flag.IntVar(&o.Retries, "retries", 2, "retry budget for transiently failing simulations")
	flag.Parse()
	o.Stdout = os.Stdout

	// SIGINT/SIGTERM close the tail's Done channel: the watcher unblocks,
	// flushes a final checkpoint, and run returns OutcomeCanceled.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "ripplewatch: %v: stopping after final checkpoint\n", s)
		close(done)
	}()
	o.Done = done

	if _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ripplewatch:", err)
		os.Exit(1)
	}
}

// options carries one invocation's inputs; tests drive run directly.
type options struct {
	ProgPath, PTPath, OutDir, StatePath string
	Window, Epoch, CheckpointEvery      int
	MaxBlocks                           uint64
	Threshold, Hysteresis               float64
	Stable                              int
	Policy, Prefetcher                  string
	Warmup                              int
	Follow                              bool
	Poll, MaxPoll, Stall                time.Duration
	Workers                             int
	Retries                             int
	Done                                <-chan struct{}
	Stdout                              io.Writer
}

// run drives watch.Run, restarting fresh when the trace rotates under a
// following watcher (a fresh inode is a new stream: the stale checkpoint
// is rejected by its content binding and the watcher starts over).
func run(o options) (watch.Result, error) {
	var res watch.Result
	if o.ProgPath == "" || o.PTPath == "" || o.OutDir == "" {
		return res, fmt.Errorf("-prog, -pt, and -out are required")
	}
	if o.Stdout == nil {
		o.Stdout = io.Discard
	}
	prog, err := cliflag.LoadProgram(o.ProgPath)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return res, err
	}
	pool := runner.New(runner.Options{Workers: o.Workers, Retries: o.Retries})
	cfg := watch.Config{
		Prog:            prog,
		TracePath:       o.PTPath,
		StatePath:       o.StatePath,
		OutDir:          o.OutDir,
		Window:          o.Window,
		Epoch:           o.Epoch,
		CheckpointEvery: o.CheckpointEvery,
		MaxBlocks:       o.MaxBlocks,
		Threshold:       o.Threshold,
		Hysteresis:      o.Hysteresis,
		Stable:          o.Stable,
		Policy:          o.Policy,
		Prefetcher:      o.Prefetcher,
		Warmup:          o.Warmup,
		Pool:            pool,
		Log:             o.Stdout,
		Tail: watch.TailConfig{
			Follow:  o.Follow,
			Poll:    o.Poll,
			MaxPoll: o.MaxPoll,
			Stall:   o.Stall,
			Done:    o.Done,
		},
	}
	for {
		res, err = watch.Run(cfg)
		if err != nil {
			return res, err
		}
		if res.Outcome == watch.OutcomeRotated && o.Follow {
			select {
			case <-o.Done:
				// The rotation raced a shutdown signal; stop.
			default:
				fmt.Fprintln(o.Stdout, "watch: trace rotated; restarting against the new stream")
				continue
			}
		}
		break
	}
	fmt.Fprintf(o.Stdout, "final: outcome=%s resumed=%v blocks=%d epochs=%d revisions=%d regions=%d\n",
		res.Outcome, res.Resumed, res.Total, res.Epochs, res.Revisions, res.Regions)
	return res, nil
}
