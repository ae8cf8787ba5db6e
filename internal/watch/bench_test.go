package watch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// kafkaTrace writes blocks of the catalog kafka workload's first input to
// a trace file under dir, as ripplegen -syncevery 256 would, and returns
// the program, the blocks and the file's path.
func kafkaTrace(tb testing.TB, dir string, blocks int) (*program.Program, []program.BlockID, string) {
	tb.Helper()
	m, ok := workload.ByName("kafka")
	if !ok {
		tb.Fatal("no catalog workload kafka")
	}
	app, err := workload.Build(m)
	if err != nil {
		tb.Fatal(err)
	}
	tr := app.Trace(0, blocks)
	var buf bytes.Buffer
	if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(tr), 256); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "kafka.pt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return app.Prog, tr, path
}

// kafkaWatch returns ripplewatch's default configuration over the trace
// at path with window = epoch = window, starting from no state: its state
// file and revision directory are removed.
func kafkaWatch(tb testing.TB, prog *program.Program, path string, window int) Config {
	tb.Helper()
	dir := filepath.Dir(path)
	cfg := Config{
		Prog:      prog,
		TracePath: path,
		StatePath: filepath.Join(dir, "kafka.ptwatch"),
		OutDir:    filepath.Join(dir, "plans"),
		Window:    window,
		Epoch:     window,
		Tail:      TailConfig{Follow: false},
	}
	if err := os.Remove(cfg.StatePath); err != nil && !os.IsNotExist(err) {
		tb.Fatal(err)
	}
	if err := os.RemoveAll(cfg.OutDir); err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	return cfg
}

// BenchmarkWatch measures one ripplewatch run from no state over a
// 200k-block kafka trace file (generated in memory, then written once) at
// ripplewatch's default window of 2,048 blocks and at pipebench's 20,000,
// with window = epoch and the default LRU+FDIP sweep. blocks/s is trace
// blocks watched per second. sims/epoch is the simulations each epoch's
// sweep runs: counted outside the timer as the passes that the epochs'
// sweeps, rerun over their windows without a prefetcher, open (a sweep
// shares the simulation of runs whose plans inject alike, and which plans
// repeat does not depend on the prefetcher).
func BenchmarkWatch(b *testing.B) {
	prog, tr, path := kafkaTrace(b, b.TempDir(), 200_000)
	for _, window := range []int{2_048, 20_000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := kafkaWatch(b, prog, path, window)
				b.StartTimer()
				if res, err := Run(cfg); err != nil || res.Total != uint64(len(tr)) {
					b.Fatalf("watch: %+v, %v", res, err)
				}
			}
			b.ReportMetric(float64(len(tr)*b.N)/b.Elapsed().Seconds(), "blocks/s")
			b.StopTimer()
			b.ReportMetric(simsPerEpoch(b, prog, tr, window), "sims/epoch")
		})
	}
}

// passCounter counts the passes opened over a block source.
type passCounter struct {
	blockseq.Source
	passes atomic.Int64
}

func (c *passCounter) Open() blockseq.Seq {
	c.passes.Add(1)
	return c.Source.Open()
}

// simsPerEpoch reruns the analysis and sweep of each epoch a watcher with
// window = epoch = window runs over tr, without a prefetcher, and returns
// the mean simulations per epoch.
func simsPerEpoch(b *testing.B, prog *program.Program, tr []program.BlockID, window int) float64 {
	epochs, sims := 0, int64(0)
	for end := window; end <= len(tr); end += window {
		win := blockseq.SliceSource(tr[end-window : end])
		a, err := core.Analyze(prog, win, core.DefaultAnalysisConfig())
		if err != nil {
			b.Fatal(err)
		}
		src := &passCounter{Source: win}
		cfg := core.TuneConfig{Params: frontend.DefaultParams(), Policy: "lru", Prefetcher: "none"}
		if _, err := core.TuneParallel(a, src, cfg, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
		epochs++
		sims += src.passes.Load()
	}
	return float64(sims) / float64(epochs)
}

// TestWatchAllocsPerBlock bounds what a warmed watcher at ripplewatch's
// default 2,048-block window allocates per trace block over 100k kafka
// blocks: each epoch's analysis, sweep and checkpoint sized by its
// window, not by the program or a fixed presize. 190-197 B/block were
// measured, at 1 and 2 Ps. Each of these alone breaks the bound: a sweep
// that simulates every threshold's plan (269), cue tables allocated per
// analysis (307), a next-use map presized to 16k lines (464); all of them
// together, with a fresh checkpoint buffer and a copy of the window per
// epoch, measured about 690.
func TestWatchAllocsPerBlock(t *testing.T) {
	prog, tr, path := kafkaTrace(t, t.TempDir(), 100_000)
	run := func() uint64 {
		cfg := kafkaWatch(t, prog, path, 2_048)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil || res.Total != uint64(len(tr)) || res.Revisions == 0 {
			t.Fatalf("watch: %+v, %v", res, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warms the simulator's and the cue pass's free lists
	const bound = 250
	if perBlock := float64(run()) / float64(len(tr)); perBlock > bound {
		t.Errorf("a warmed 2,048-block-window watcher allocates %.0f B per trace block, want <= %d", perBlock, bound)
	}
}
