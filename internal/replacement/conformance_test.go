package replacement

import (
	"testing"

	"ripple/internal/probe"
	"ripple/internal/probe/probetest"
)

// TestProbeZooCoversCatalog pins the probe registry to the catalog: every
// catalog policy has a registration (and thus conformance, fuzz, and
// matrix coverage), no registration is stale, and factories build what
// they claim.
func TestProbeZooCoversCatalog(t *testing.T) {
	zoo := ProbeZoo()
	names := Names()
	if len(zoo) != len(names) {
		t.Fatalf("ProbeZoo has %d entries, catalog has %d", len(zoo), len(names))
	}
	seen := map[string]bool{}
	for _, reg := range zoo {
		seen[reg.Name] = true
		if got := reg.New().Name(); got != reg.Name {
			t.Errorf("registration %q builds policy %q", reg.Name, got)
		}
		if reg.Ref == nil {
			t.Errorf("registration %q has no reference spec", reg.Name)
		}
		if got := reg.Probe()().Name(); got != reg.Name {
			t.Errorf("registration %q probe variant builds policy %q", reg.Name, got)
		}
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("catalog policy %q has no probe registration", name)
		}
	}
}

// TestPolicyConformance runs the full probetest suite — differential
// replay against the independent reference specs over 1000 seeded
// schedules per hint mode, model agreement, determinism, Reset
// idempotence, and set-permutation invariance — for every policy in the
// catalog.
func TestPolicyConformance(t *testing.T) {
	for _, reg := range ProbeZoo() {
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			t.Parallel()
			probetest.TestPolicyConformance(t, reg)
		})
	}
}

// TestDemoterContract asserts the cache.Demoter contract for every
// catalog policy that opts into demote hints: the demoted line becomes
// the set's next victim, and demoting non-resident or just-evicted
// lines is harmless.
func TestDemoterContract(t *testing.T) {
	for _, reg := range ProbeZoo() {
		reg := reg
		if !reg.Demotes() {
			continue
		}
		t.Run(reg.Name, func(t *testing.T) {
			t.Parallel()
			probetest.CheckDemoterContract(t, reg.New)
		})
	}
}

// TestCatalogImplementsOverheader requires every catalog policy to
// report hardware overhead, and pins the exact Table I figures for the
// paper's 32KiB/8-way geometry (64 sets x 8 ways). These are goldens,
// not tolerances: a drive-by change to an overhead model must show up
// here.
func TestCatalogImplementsOverheader(t *testing.T) {
	golden := map[string]float64{
		"lru":       64,   // 1 bit / line
		"random":    0,    // no metadata
		"srrip":     128,  // 2-bit RRPV / line
		"drrip":     128,  // + sub-byte PSEL
		"ghrp":      4162, // 3KB tables + 64B dead bits + 1KB 16-bit sigs + 2B history: Table I's breakdown, not its "4.13KB" total
		"ghrp-orig": 4162,
		"hawkeye":   5312, // sampler + occupancy + predictor + RRIP state
		"harmony":   5312,
		"ship":      2112, // RRPV + SHCT + 15-bit sigs
		"trrip":     2112,
	}
	const sets, ways = 64, 8
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		oh, ok := p.(Overheader)
		if !ok {
			t.Errorf("policy %q does not implement Overheader", name)
			continue
		}
		want, ok := golden[name]
		if !ok {
			t.Errorf("no golden overhead for policy %q — add it", name)
			continue
		}
		if got := oh.OverheadBytes(sets, ways); got != want {
			t.Errorf("%s: OverheadBytes(%d, %d) = %v, want %v", name, sets, ways, got, want)
		}
		if oh.OverheadNote() == "" {
			t.Errorf("%s: empty OverheadNote", name)
		}
	}
}

// TestProbeVariantStillLRUDegenerate documents why the probe variant
// exists: under the production aversion threshold Hawkeye and Harmony
// are black-box indistinguishable from LRU on demand streams (the
// paper's degeneracy result), while the probe-configured instances are
// not.
func TestProbeVariantStillLRUDegenerate(t *testing.T) {
	cfg := probe.Config{Sets: 8, Ways: 4}
	sched := probe.RandomSchedule(7, cfg, 2048)
	demand := make([]probe.Op, len(sched))
	for i, op := range sched {
		demand[i] = probe.Op{Kind: probe.OpAccess, Line: op.Line}
	}
	lruOut, _ := probe.Run(NewLRU(), cfg, demand)

	hawkOut, _ := probe.Run(NewHawkeye(false), cfg, demand)
	if d := probe.FirstDivergence(lruOut, hawkOut); d >= 0 {
		t.Errorf("production hawkeye diverged from LRU at op %d — degeneracy no longer holds", d)
	}

	ph := NewHawkeye(false)
	ph.SetAverseThreshold(probeAverseBelow)
	probeOut, _ := probe.Run(ph, cfg, demand)
	if probe.FirstDivergence(lruOut, probeOut) < 0 {
		t.Error("probe-configured hawkeye is still LRU-degenerate; the aversion path never fired")
	}
}
