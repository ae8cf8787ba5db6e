// Command ripplelayout applies the profile-guided code-layout
// optimizations (C3 function clustering + hot/cold block reordering) to a
// program image using a recorded trace — the AutoFDO/BOLT-style stage that
// can run before Ripple's injection in a combined pipeline.
//
// Usage:
//
//	ripplelayout -prog /tmp/fh.prog -pt /tmp/fh.pt -out /tmp/fh-bolt.prog
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ripple/internal/cliflag"
	"ripple/internal/layout"
	"ripple/internal/trace"
)

func main() {
	var o options
	flag.StringVar(&o.Prog, "prog", "", "program image from ripplegen (required)")
	flag.StringVar(&o.PT, "pt", "", "PT trace from ripplegen (required)")
	flag.StringVar(&o.Out, "out", "", "output path for the optimized image (required)")
	flag.BoolVar(&o.NoFuncs, "no-funcs", false, "disable C3 function reordering")
	flag.BoolVar(&o.NoBlocks, "no-blocks", false, "disable hot/cold block reordering")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ripplelayout:", err)
		os.Exit(1)
	}
}

// options carries one invocation's inputs; tests drive run directly.
type options struct {
	Prog, PT, Out     string
	NoFuncs, NoBlocks bool
}

// run profiles the trace, writes the optimized image to Out, and prints
// a summary of the profile and the layout passes to w.
func run(o options, w io.Writer) error {
	if o.Prog == "" || o.PT == "" || o.Out == "" {
		return fmt.Errorf("-prog, -pt, and -out are required")
	}
	prog, err := cliflag.LoadProgram(o.Prog)
	if err != nil {
		return err
	}
	prof, err := layout.ProfileFromTrace(prog, trace.FileSourceOptions(o.PT, prog, trace.FileOptions{}))
	if err != nil {
		return err
	}
	opts := layout.DefaultOptions()
	opts.ReorderFunctions = !o.NoFuncs
	opts.ReorderBlocks = !o.NoBlocks
	optimized, err := layout.Optimize(prog, prof, opts)
	if err != nil {
		return err
	}

	hotBytes, hotLines := layout.HotBytes(prog, prof)
	fmt.Fprintf(w, "profiled: %d block executions, %.0fKB hot code over %d lines\n",
		prof.TotalBlocks(), float64(hotBytes)/1024, hotLines)
	fmt.Fprintf(w, "layout: function reorder=%v, block reorder=%v\n", opts.ReorderFunctions, opts.ReorderBlocks)

	of, err := os.Create(o.Out)
	if err != nil {
		return err
	}
	defer of.Close()
	return optimized.Save(of)
}
