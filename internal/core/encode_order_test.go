package core

import (
	"bytes"
	"encoding/gob"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ripple/internal/program"
)

// stray stands for any other type a process may gob-encode before a plan
// or a program image, such as a watcher checkpoint.
type stray struct{ Marks []int64 }

// TestSavedBytesIndependentOfEncodeOrder: a plan's and a program image's
// bytes do not depend on what the process gob-encoded before them. gob
// numbers a type the first time a process encodes it and writes that
// number into the bytes, so the order only shows in a fresh process: the
// test re-runs its own binary twice, as helpers that encode a plan, an
// image and a stray value in opposite orders, and compares the plan and
// image bytes they wrote.
func TestSavedBytesIndependentOfEncodeOrder(t *testing.T) {
	prog := lineBlocks(t, 3)
	plan := &Plan{
		Program:        prog.Name,
		Threshold:      0.45,
		Injections:     map[program.BlockID][]uint64{2: {0, 1}, 1: {2}},
		WindowsTotal:   7,
		WindowsCovered: 3,
	}
	save := map[string]func(*bytes.Buffer) error{
		"plan":  func(b *bytes.Buffer) error { return plan.Save(b) },
		"image": func(b *bytes.Buffer) error { return prog.Save(b) },
		"stray": func(b *bytes.Buffer) error { return gob.NewEncoder(b).Encode(stray{Marks: []int64{1}}) },
	}
	if n := flag.NArg(); n > 0 { // a helper: encode each named value in order into dir Arg(n-1)
		for _, what := range flag.Args()[:n-1] {
			var b bytes.Buffer
			if err := save[what](&b); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(flag.Arg(n-1), what), b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	orders := [][]string{{"stray", "plan", "image"}, {"image", "plan", "stray"}}
	dirs := make([]string, len(orders))
	for i, order := range orders {
		dirs[i] = t.TempDir()
		args := append([]string{"-test.run=^TestSavedBytesIndependentOfEncodeOrder$", "--"}, order...)
		if out, err := exec.Command(os.Args[0], append(args, dirs[i])...).CombinedOutput(); err != nil {
			t.Fatalf("helper encoding %v: %v\n%s", order, err, out)
		}
	}
	for _, what := range []string{"plan", "image"} {
		var got [2][]byte
		for i, dir := range dirs {
			raw, err := os.ReadFile(filepath.Join(dir, what))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = raw
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Errorf("the %s's bytes differ between a process that encoded %v and one that encoded %v", what, orders[0], orders[1])
		}
	}
}
