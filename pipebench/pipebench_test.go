package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ripple/internal/prefetch"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// a and b overlap on [30, 40]: the root loses their union, 50ms.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},
		// c sticks out of the root: only [90, 100] is covered.
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		// a's child, nested two deep; two identical children count once.
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(20)},
		{ID: 6, Parent: 2, Name: "a2", Start: ms(15), End: ms(20)},
		// A span whose parent is unknown is a root of its own.
		{ID: 7, Parent: 99, Name: "orphan", Start: ms(0), End: ms(7)},
	}
	want := map[int]time.Duration{1: ms(40), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(5), 6: ms(5), 7: ms(7)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.begin("ignored")() // tracing off records nothing and must not panic

	tr := newTracer("test")
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner", "policy", "lru")
	endInner()
	endOuter()
	tr.begin("second")()
	outer, _ := tr.find("outer")
	inner, _ := tr.find("inner")
	second, _ := tr.find("second")
	if inner.Parent != outer.ID || outer.Parent != 0 || second.Parent != 0 {
		t.Fatalf("parents: outer %d inner %d second %d", outer.Parent, inner.Parent, second.Parent)
	}
	if inner.Attrs["policy"] != "lru" || inner.Run != "test" {
		t.Fatalf("inner span %+v", inner)
	}
	if inner.Start < outer.Start || inner.End > outer.End {
		t.Fatalf("inner %v..%v outside outer %v..%v", inner.Start, inner.End, outer.Start, outer.End)
	}
}

func TestCheckFailsOnPerturbedDigest(t *testing.T) {
	want, err := expected("plan-kafka")
	if err != nil {
		t.Fatal(err)
	}
	got := []op{{key: "plan", value: want["plan"], count: 1}}
	if a, f, _ := check(want, got); a != 1 || f != 0 {
		t.Fatalf("expected output checked against itself: attempted %d failed %d", a, f)
	}
	perturbed := map[string]string{"plan": strings.Replace(want["plan"], "digest=71c3", "digest=71c4", 1)}
	if perturbed["plan"] == want["plan"] {
		t.Fatal("expected plan digest does not start with 71c3")
	}
	if a, f, diffs := check(perturbed, got); a != 1 || f != 1 || len(diffs) != 1 {
		t.Fatalf("perturbed digest: attempted %d failed %d diffs %q", a, f, diffs)
	}
	// A watcher op stands for its epochs: a mismatch fails all of them,
	// and an expected op the pass did not produce fails too.
	watchOps := []op{{key: "watch", value: "x", count: 25}}
	if a, f, _ := check(map[string]string{"watch": "y", "other": "z"}, watchOps); a != 26 || f != 26 {
		t.Fatalf("watch mismatch: attempted %d failed %d, want 26 and 26", a, f)
	}
	// An error fails even against a reference that holds the same error,
	// and a layer call that fails the same way on every pass of a
	// non-default seed fails on every pass.
	errOps := []op{{key: "plan", value: errValue + "analysis failed", count: 1}}
	if a, f, _ := check(map[string]string{"plan": errOps[0].value}, errOps); a != 1 || f != 1 {
		t.Fatalf("error matching its reference: attempted %d failed %d, want 1 and 1", a, f)
	}
	seeded := tally{ref: map[string]string{}, learn: true}
	for range 3 {
		seeded.add("pass", errOps)
	}
	if seeded.attempted != 3 || seeded.failed != 3 {
		t.Fatalf("deterministic error on seed 3: attempted %d failed %d, want 3 and 3", seeded.attempted, seeded.failed)
	}
}

// TestCheckLearnsOnOtherSeeds checks the reference a non-default seed
// builds from its own passes: an erroring op is not learned, and a pass
// that disagrees with an earlier error-free one fails.
func TestCheckLearnsOnOtherSeeds(t *testing.T) {
	sweep := []op{{key: "lru+none", value: "cycles=1", count: 1}, {key: "lru+fdip", value: errValue + "x", count: 1}}
	good := []op{{key: "lru+none", value: "cycles=1", count: 1}, {key: "lru+fdip", value: "cycles=2", count: 1}}
	other := []op{{key: "lru+none", value: "cycles=1", count: 1}, {key: "lru+fdip", value: "cycles=3", count: 1}}
	tl := tally{ref: map[string]string{}, learn: true}
	tl.add("pass 1", sweep) // the erroring op fails and is not learned
	tl.add("pass 2", good)  // learned here
	tl.add("pass 3", good)
	tl.add("pass 4", other) // disagrees with pass 2
	if tl.attempted != 8 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 8 and 2", tl.attempted, tl.failed)
	}
}

func TestExpectedCoversEveryOp(t *testing.T) {
	for _, b := range benches {
		want, err := expected(b.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := workload.ByName(b.app); !ok {
			t.Errorf("%s: app %q is not in the catalog", b.name, b.app)
		}
		n := 1
		if b.name == "sweep-drupal" {
			n = len(replacement.Names()) * len(prefetch.Names())
		}
		if len(want) != n {
			t.Errorf("%s: expected.json has %d ops, want %d", b.name, len(want), n)
		}
	}
}

func TestWalkSeedZeroIsCatalog(t *testing.T) {
	m, _ := workload.ByName("kafka")
	if walkSeed(m.Seed, 0) != m.Seed {
		t.Fatal("seed 0 must leave the catalog seed unchanged")
	}
	if walkSeed(m.Seed, 1) == walkSeed(m.Seed, 2) {
		t.Fatal("seeds 1 and 2 perturb the walk identically")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestMetricCatalog checks every metric's name and unit against the
// contract, and that BENCHMARK.json declares exactly the metrics and
// workloads the benchmark prints.
func TestMetricCatalog(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := func(u string) bool {
		if u == "" || len(u) > 16 {
			return false
		}
		for _, r := range u {
			if !strings.ContainsRune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-", r) {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric %q: bad name", d.Name)
		}
		if !unit(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if w.Name != benches[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benches[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, perLayer[i])
		}
	}
}
