package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// small keeps the experiment runs to a few seconds: two apps, a short
// trace, one worker, no progress log.
var small = []string{"-apps", "kafka,drupal", "-blocks", "20000", "-warmup", "6000", "-j", "1", "-q"}

// goldenCases are the invocations the golden pins, in file order: the
// experiment list, three experiments (fig9 tunes every Ripple cell with
// a warmup), the four argument errors, and an unknown experiment. The
// cache-bogus and oracle-bogus cases pin that -cache and -oracle are
// unknown flags.
var goldenCases = []struct {
	name string
	args []string
}{
	{"list", []string{"-list"}},
	{"fig6", append([]string{"-run", "fig6"}, small...)},
	{"fig9", append([]string{"-run", "fig9"}, small...)},
	{"lbr", append([]string{"-run", "lbr"}, small...)},
	{"no-run", []string{"-q"}},
	{"cache-bogus", []string{"-run", "fig6", "-cache", "bogus"}},
	{"cachedir-and-store", []string{"-run", "fig6", "-cachedir", "x", "-store", "http://127.0.0.1:1"}},
	{"oracle-bogus", []string{"-run", "fig6", "-oracle", "bogus"}},
	{"unknown-experiment", append([]string{"-run", "nosuch"}, small...)},
}

// TestGoldenOutputs: fixed flags must print the committed stdout, stderr
// and exit status. Regenerate after intentional changes with:
//
//	go test ./cmd/rippleexp -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		fmt.Fprintf(&got, "== %s: rippleexp %s ==\nexit %d\n", c.name, strings.Join(c.args, " "), code)
		got.Write(stdout.Bytes())
		if stderr.Len() > 0 {
			got.WriteString("-- stderr --\n")
			got.Write(stderr.Bytes())
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
