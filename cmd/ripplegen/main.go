// Command ripplegen synthesizes one of the nine data-center applications
// and records a PT-like control-flow trace of it, producing the two
// artifacts the rest of the pipeline consumes: a program image and a
// packet-encoded basic-block trace.
//
// Usage:
//
//	ripplegen -app finagle-http -blocks 600000 -out /tmp/fh
//
// writes /tmp/fh.prog (program image) and /tmp/fh.pt (trace packets).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ripple/internal/trace"
	"ripple/internal/workload"
)

func main() {
	var o options
	flag.StringVar(&o.App, "app", "finagle-http", "application model ("+strings.Join(workload.Names(), ", ")+")")
	flag.IntVar(&o.Blocks, "blocks", 600_000, "minimum trace length in executed basic blocks")
	flag.IntVar(&o.Input, "input", 0, "input configuration (0-3)")
	flag.StringVar(&o.Out, "out", "", "output path prefix (required)")
	flag.IntVar(&o.SyncEvery, "syncevery", 0, "emit a resynchronization point roughly every N blocks so damaged traces recover with bounded loss (0: none)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ripplegen:", err)
		os.Exit(1)
	}
}

// options carries one invocation's inputs; tests drive run directly.
type options struct {
	App                      string
	Blocks, Input, SyncEvery int
	Out                      string
}

// run validates the options, writes <Out>.prog and <Out>.pt, and prints
// a summary of both to w.
func run(o options, w io.Writer) error {
	if o.Out == "" {
		return fmt.Errorf("-out prefix is required")
	}
	if o.Blocks < 1 {
		return fmt.Errorf("-blocks must be positive (got %d)", o.Blocks)
	}
	if o.Input < 0 {
		return fmt.Errorf("-input must be non-negative (got %d)", o.Input)
	}
	if o.SyncEvery < 0 {
		return fmt.Errorf("-syncevery must be non-negative (got %d)", o.SyncEvery)
	}
	m, ok := workload.ByName(o.App)
	if !ok {
		return fmt.Errorf("unknown app %q (have %s)", o.App, strings.Join(workload.Names(), ", "))
	}
	app, err := workload.Build(m)
	if err != nil {
		return err
	}
	progF, err := os.Create(o.Out + ".prog")
	if err != nil {
		return err
	}
	defer progF.Close()
	if err := app.Prog.Save(progF); err != nil {
		return err
	}

	ptF, err := os.Create(o.Out + ".pt")
	if err != nil {
		return err
	}
	defer ptF.Close()
	stats, err := trace.EncodeSourceSync(ptF, app.Prog, app.Stream(o.Input, o.Blocks), o.SyncEvery)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d funcs, %d blocks, %.1fKB text\n",
		m.Name, len(app.Prog.Funcs), app.Prog.NumBlocks(), float64(app.Prog.TotalBytes())/1024)
	fmt.Fprintf(w, "trace: %d blocks, %d TNT bits, %d TIPs, %d/%d rets compressed, %.2f bits/block (%.1fKB)\n",
		stats.Blocks, stats.TNTBits, stats.TIPs, stats.RetsCompressed, stats.RetsTotal,
		stats.BitsPerBlock(), float64(stats.Bytes)/1024)
	if stats.Syncs > 0 {
		fmt.Fprintf(w, "sync: %d resynchronization points (every ~%d blocks)\n", stats.Syncs, o.SyncEvery)
	}
	return nil
}
