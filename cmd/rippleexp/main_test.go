package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// small keeps the experiment runs to a few seconds: two apps, a short
// trace, one worker, no progress log.
var small = []string{"-apps", "kafka,drupal", "-blocks", "20000", "-warmup", "6000", "-j", "1", "-q"}

// goldenCases are the invocations the golden pins, in file order: the
// experiment list, every table at small scale (-run all), the four
// argument errors, and an unknown experiment. The cache-bogus,
// cachedir-and-store and oracle-bogus cases pin that -cache, -store and
// -oracle are unknown flags.
var goldenCases = []struct {
	name string
	args []string
}{
	{"list", []string{"-list"}},
	{"all", append([]string{"-run", "all"}, small...)},
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

// TestCachedirRerunSimulatesNothing: a second run over the same
// -cachedir prints the same tables without simulating, serving its jobs
// from the store, and the -json summary's Jobs block holds exactly the
// job runner's counters, in order.
func TestCachedirRerunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	summary := filepath.Join(dir, "summary.json")
	args := append([]string{"-run", "fig6"}, small...)
	args = append(args, "-cachedir", filepath.Join(dir, "cache"), "-json", summary)
	runOnce := func(name string) (string, map[string]int64) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s run: exit %d\n%s", name, code, stderr.Bytes())
		}
		raw, err := os.ReadFile(summary)
		if err != nil {
			t.Fatal(err)
		}
		var sum struct{ Jobs json.RawMessage }
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatal(err)
		}
		want := []string{"Simulated", "StoreHits", "MemHits", "Errors", "Retries", "Quarantined", "Recovered"}
		if got := objectKeys(t, sum.Jobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s run: Jobs keys %v, want %v", name, got, want)
		}
		var jobs map[string]int64
		if err := json.Unmarshal(sum.Jobs, &jobs); err != nil {
			t.Fatal(err)
		}
		return stdout.String(), jobs
	}
	cold, coldJobs := runOnce("cold")
	warm, warmJobs := runOnce("warm")
	if coldJobs["Simulated"] <= 0 {
		t.Fatalf("cold run simulated nothing: %v", coldJobs)
	}
	if warmJobs["Simulated"] != 0 || warmJobs["StoreHits"] <= 0 {
		t.Fatalf("warm run simulated %d jobs with %d store hits, want 0 and some", warmJobs["Simulated"], warmJobs["StoreHits"])
	}
	if cold != warm {
		t.Fatalf("warm run's stdout differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// objectKeys returns the keys of a JSON object in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
