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
	"os"

	"ripple/internal/cliflag"
	"ripple/internal/layout"
	"ripple/internal/trace"
)

func main() {
	progPath := flag.String("prog", "", "program image from ripplegen (required)")
	ptPath := flag.String("pt", "", "PT trace from ripplegen (required)")
	out := flag.String("out", "", "output path for the optimized image (required)")
	noFuncs := flag.Bool("no-funcs", false, "disable C3 function reordering")
	noBlocks := flag.Bool("no-blocks", false, "disable hot/cold block reordering")
	flag.Parse()

	if err := run(*progPath, *ptPath, *out, !*noFuncs, !*noBlocks); err != nil {
		fmt.Fprintln(os.Stderr, "ripplelayout:", err)
		os.Exit(1)
	}
}

func run(progPath, ptPath, out string, funcs, blocks bool) error {
	if progPath == "" || ptPath == "" || out == "" {
		return fmt.Errorf("-prog, -pt, and -out are required")
	}
	prog, err := cliflag.LoadProgram(progPath)
	if err != nil {
		return err
	}
	prof, err := layout.ProfileFromTrace(prog, trace.FileSourceOptions(ptPath, prog, trace.FileOptions{}))
	if err != nil {
		return err
	}
	opts := layout.DefaultOptions()
	opts.ReorderFunctions = funcs
	opts.ReorderBlocks = blocks
	optimized, err := layout.Optimize(prog, prof, opts)
	if err != nil {
		return err
	}

	hotBytes, hotLines := layout.HotBytes(prog, prof)
	fmt.Printf("profiled: %d block executions, %.0fKB hot code over %d lines\n",
		prof.TotalBlocks(), float64(hotBytes)/1024, hotLines)
	fmt.Printf("layout: function reorder=%v, block reorder=%v\n", funcs, blocks)

	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	return optimized.Save(of)
}
