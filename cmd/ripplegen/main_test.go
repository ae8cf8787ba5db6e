package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCases are the invocations the golden pins, in file order: a
// sync-pointed trace and a second input without sync points, then one
// case per argument check.
func goldenCases(dir string) []struct {
	name string
	o    options
} {
	out := func(name string) string { return filepath.Join(dir, name) }
	return []struct {
		name string
		o    options
	}{
		{"kafka-sync", options{App: "kafka", Blocks: 20_000, SyncEvery: 512, Out: out("kafka-sync")}},
		{"kafka-input1", options{App: "kafka", Blocks: 20_000, Input: 1, Out: out("kafka-input1")}},
		{"no-out", options{App: "kafka", Blocks: 20_000}},
		{"zero-blocks", options{App: "kafka", Blocks: 0, Out: out("zero-blocks")}},
		{"negative-input", options{App: "kafka", Blocks: 20_000, Input: -1, Out: out("negative-input")}},
		{"negative-syncevery", options{App: "kafka", Blocks: 20_000, SyncEvery: -1, Out: out("negative-syncevery")}},
	}
}

// TestGoldenOutputs: fixed flags must print the committed summary and
// write byte-identical artifacts (pinned by their SHA-256), and each
// argument error must be reported before anything is written.
// Regenerate after intentional changes with:
//
//	go test ./cmd/ripplegen -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	for _, c := range goldenCases(dir) {
		got.WriteString("== " + c.name + " ==\n")
		if err := run(c.o, &got); err != nil {
			fmt.Fprintf(&got, "error: %v\n", err)
			if _, statErr := os.Stat(c.o.Out + ".prog"); c.o.Out != "" && statErr == nil {
				t.Errorf("%s: rejected arguments still wrote %s.prog", c.name, c.o.Out)
			}
			continue
		}
		for _, ext := range []string{".prog", ".pt"} {
			raw, err := os.ReadFile(c.o.Out + ext)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s sha256 %x\n", ext, sha256.Sum256(raw))
		}
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
