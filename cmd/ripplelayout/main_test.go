package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/trace"
	"ripple/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeInputs generates a small kafka image and trace in dir and returns
// their paths.
func writeInputs(t *testing.T, dir string) (progPath, ptPath string) {
	t.Helper()
	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	progPath, ptPath = filepath.Join(dir, "kafka.prog"), filepath.Join(dir, "kafka.pt")
	var prog, pt bytes.Buffer
	if err := app.Prog.Save(&prog); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.EncodeSourceSync(&pt, app.Prog, app.Stream(0, 20_000), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(progPath, prog.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ptPath, pt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return progPath, ptPath
}

// TestGoldenOutputs: fixed flags must print the committed summary and
// write a byte-identical optimized image (pinned by its SHA-256), and a
// missing argument must be reported as an error.
// Regenerate after intentional changes with:
//
//	go test ./cmd/ripplelayout -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	progPath, ptPath := writeInputs(t, dir)
	out := func(name string) string { return filepath.Join(dir, name+".prog") }
	cases := []struct {
		name string
		o    options
	}{
		{"default", options{Prog: progPath, PT: ptPath, Out: out("default")}},
		{"no-funcs", options{Prog: progPath, PT: ptPath, Out: out("no-funcs"), NoFuncs: true}},
		{"no-blocks", options{Prog: progPath, PT: ptPath, Out: out("no-blocks"), NoBlocks: true}},
		{"no-out", options{Prog: progPath, PT: ptPath}},
	}
	var got bytes.Buffer
	for _, c := range cases {
		got.WriteString("== " + c.name + " ==\n")
		if err := run(c.o, &got); err != nil {
			fmt.Fprintf(&got, "error: %v\n", err)
			continue
		}
		raw, err := os.ReadFile(c.o.Out)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "image sha256 %x\n", sha256.Sum256(raw))
	}
	golden := filepath.Join("testdata", "outputs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("outputs diverged from golden (if intentional, regenerate with -update):\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
