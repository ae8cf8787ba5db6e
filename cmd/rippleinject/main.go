// Command rippleinject is the link-time rewriting stage as a standalone
// tool: it applies an injection plan (from rippleanalyze) to a program
// image (from ripplegen) and writes the rewritten image — what a
// production deployment would feed to its post-link optimizer. The
// invalidate instructions go where rippleanalyze tuned them: into
// existing alignment padding and NOP slots, so no code byte moves and a
// trace recorded on the original image decodes against the rewritten one.
//
// Usage:
//
//	rippleinject -prog /tmp/fh.prog -plan /tmp/fh.plan -out /tmp/fh-ripple.prog
package main

import (
	"flag"
	"fmt"
	"os"

	"ripple/internal/cliflag"
)

func main() {
	progPath := flag.String("prog", "", "program image from ripplegen (required)")
	planPath := flag.String("plan", "", "injection plan from rippleanalyze (required)")
	out := flag.String("out", "", "output path for the rewritten image (required)")
	flag.Parse()

	if err := run(*progPath, *planPath, *out); err != nil {
		fmt.Fprintln(os.Stderr, "rippleinject:", err)
		os.Exit(1)
	}
}

func run(progPath, planPath, out string) error {
	if progPath == "" || planPath == "" || out == "" {
		return fmt.Errorf("-prog, -plan, and -out are required")
	}
	prog, err := cliflag.LoadProgram(progPath)
	if err != nil {
		return err
	}
	plan, err := cliflag.LoadPlan(planPath, prog)
	if err != nil {
		return err
	}

	injected := plan.ApplyPreservingLayout(prog)
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := injected.Save(of); err != nil {
		return err
	}

	grew := injected.TotalBytes() - prog.TotalBytes()
	fmt.Printf("injected %d invalidate instructions into %d cue blocks\n",
		plan.StaticInstructions(), len(plan.Injections))
	fmt.Printf("text: %.1fKB -> %.1fKB (+%d bytes, %.2f%% static instruction overhead)\n",
		float64(prog.TotalBytes())/1024, float64(injected.TotalBytes())/1024, grew,
		float64(injected.StaticInstrs()-prog.StaticInstrs())/float64(prog.StaticInstrs())*100)
	return nil
}
