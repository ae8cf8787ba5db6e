package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableValueAndMean(t *testing.T) {
	tb := NewTable("x", "title", "app", "a", "b").WithMean()
	tb.AddRowF("r1", "%.2f", 1, 10)
	tb.AddRowF("r2", "%.2f", 3, 30)
	if v, ok := tb.Value("r1", "a"); !ok || v != 1 {
		t.Fatalf("Value(r1,a) = %v,%v", v, ok)
	}
	if v, ok := tb.Value("r2", "b"); !ok || v != 30 {
		t.Fatalf("Value(r2,b) = %v,%v", v, ok)
	}
	if _, ok := tb.Value("r3", "a"); ok {
		t.Fatal("missing row returned a value")
	}
	if _, ok := tb.Value("r1", "c"); ok {
		t.Fatal("missing column returned a value")
	}
	if m, ok := tb.Mean("a"); !ok || m != 2 {
		t.Fatalf("Mean(a) = %v,%v", m, ok)
	}
	if rows := tb.Rows(); len(rows) != 2 || rows[0] != "r1" {
		t.Fatalf("Rows = %v", rows)
	}
}

func TestTableStringCellsHaveNoMean(t *testing.T) {
	tb := NewTable("x", "t", "k", "v")
	tb.AddRow("r", "hello")
	if _, ok := tb.Value("r", "v"); ok {
		t.Fatal("string cell reported as numeric")
	}
	if _, ok := tb.Mean("v"); ok {
		t.Fatal("mean over string cells")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("fig0", "demo", "app", "col").WithMean()
	tb.Note = "a note"
	tb.AddRowF("alpha", "%.1f", 4)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"fig0", "demo", "a note", "alpha", "4.0", "mean", "4.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(registry))
	}
	for _, id := range ids {
		if _, ok := Describe(id); !ok {
			t.Fatalf("Describe(%q) missing", id)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Fatal("Describe accepted an unknown id")
	}
	// The paper's artifact set must all be present.
	for _, want := range []string{"fig1", "fig7", "fig8", "tab1", "tab2", "fig13", "demote", "granularity"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := New(Config{Log: nil})
	if _, err := s.Tables("bogus"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownApp(t *testing.T) {
	s := New(Config{Apps: []string{"not-an-app"}, Log: nil})
	if _, err := s.Tables("fig1"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// fastSuite runs against one small app and short traces so cheap
// experiments can execute in unit-test time.
func fastSuite() *Suite {
	return New(Config{
		Apps:         []string{"finagle-http"},
		TraceBlocks:  40_000,
		WarmupBlocks: 10_000,
		Thresholds:   []float64{0.55, 0.95},
		Log:          nil,
	})
}

func TestTab1AndTab2(t *testing.T) {
	s := fastSuite()
	tab1, err := s.Tab1()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tab1.Value("lru", "overhead"); v != 0 {
		// overhead column is a string; Value must fail, use row presence
		t.Fatal("unexpected numeric overhead cell")
	}
	rows := tab1.Rows()
	if len(rows) < 6 {
		t.Fatalf("tab1 rows = %v", rows)
	}
	tab2, err := s.Tab2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Rows()) < 8 {
		t.Fatal("tab2 too short")
	}
}

func TestFig1OnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	s := fastSuite()
	tb, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Value("finagle-http", "ideal-speedup%")
	if !ok {
		t.Fatal("fig1 missing app row")
	}
	if v <= 0 || v > 100 {
		t.Fatalf("ideal speedup %v%% implausible", v)
	}
}

func TestFig5WorkedExample(t *testing.T) {
	s := fastSuite()
	tb, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows()) == 0 {
		t.Fatal("fig5 produced no candidate rows")
	}
	// Probabilities are in (0, 1].
	for _, r := range tb.Rows() {
		v, ok := tb.Value(r, "P(evict|exec)")
		if !ok || v <= 0 || v > 1 {
			t.Fatalf("candidate %s has probability %v", r, v)
		}
	}
}

func TestRunRendersToWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := fastSuite()
	var buf bytes.Buffer
	if err := s.Run("compulsory", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compulsory") {
		t.Fatal("render missing experiment id")
	}
}

func TestLBRExperimentOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	s := fastSuite()
	tb, err := s.LBR()
	if err != nil {
		t.Fatal(err)
	}
	pt, ok1 := tb.Value("finagle-http", "pt-windows")
	lb, ok2 := tb.Value("finagle-http", "lbr-windows")
	if !ok1 || !ok2 {
		t.Fatal("lbr table missing window counts")
	}
	if lb >= pt {
		t.Fatalf("LBR fragments found %v windows, full PT %v — sampling should see fewer", lb, pt)
	}
}

func TestXPrefetchOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a plan under the temporal prefetcher")
	}
	s := fastSuite()
	tb, err := s.XPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows()) != 1 {
		t.Fatalf("rows = %v", tb.Rows())
	}
}

func TestLayoutAblationOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	s := fastSuite()
	tb, err := s.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Value("finagle-http", "preserve%"); !ok {
		t.Fatal("layout table missing preserve column")
	}
	if _, ok := tb.Value("finagle-http", "shift%"); !ok {
		t.Fatal("layout table missing shift column")
	}
}

func TestNewConfigDefaults(t *testing.T) {
	s := New(Config{Log: nil})
	if s.cfg.TraceBlocks != DefaultConfig().TraceBlocks {
		t.Fatalf("TraceBlocks default = %d", s.cfg.TraceBlocks)
	}
	if len(s.cfg.Apps) != 9 {
		t.Fatalf("Apps default = %v", s.cfg.Apps)
	}
	s2 := New(Config{TraceBlocks: 90_000, Log: nil})
	if s2.cfg.WarmupBlocks != 30_000 {
		t.Fatalf("WarmupBlocks default = %d, want TraceBlocks/3", s2.cfg.WarmupBlocks)
	}
}

func TestExtAppsRespectsRestriction(t *testing.T) {
	// A given list is used as is, however long; only a suite given no
	// list falls back to the representative subset.
	for _, apps := range [][]string{{"kafka"}, {"kafka", "tomcat", "cassandra"}} {
		got := New(Config{Apps: apps, Log: nil}).extApps()
		if strings.Join(got, ",") != strings.Join(apps, ",") {
			t.Fatalf("extApps of %v = %v", apps, got)
		}
	}
	full := New(Config{Log: nil})
	if len(full.extApps()) != 3 {
		t.Fatalf("extApps on full suite = %v", full.extApps())
	}
}

func TestShapeCheckRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("computes several experiments")
	}
	// Two apps so the JIT-vs-non-JIT coverage claim has both sides.
	s := New(Config{
		Apps:         []string{"finagle-http", "drupal"},
		TraceBlocks:  60_000,
		WarmupBlocks: 20_000,
		Thresholds:   []float64{0.55, 0.95},
		Log:          nil,
	})
	var buf bytes.Buffer
	violations, err := s.ShapeCheck(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// At this tiny scale some claims may legitimately wobble; the check
	// itself must run and report coherently.
	out := buf.String()
	if !strings.Contains(out, "fig1") || !strings.Contains(out, "fig10") {
		t.Fatalf("check skipped claims:\n%s", out)
	}
	for _, v := range violations {
		t.Logf("violated at small scale: %s", v)
	}
}

func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations twice")
	}
	mk := func() *Table {
		s := New(Config{
			Apps:         []string{"kafka"},
			TraceBlocks:  40_000,
			WarmupBlocks: 10_000,
			Log:          nil,
		})
		tb, err := s.Fig1()
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	a, b := mk(), mk()
	va, _ := a.Value("kafka", "ideal-speedup%")
	vb, _ := b.Value("kafka", "ideal-speedup%")
	if va != vb {
		t.Fatalf("fresh suites disagree: %v vs %v", va, vb)
	}
}

func TestPhasesExperimentOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds phased app variants")
	}
	s := fastSuite()
	tb, err := s.Phases()
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		rp, _ := tb.Value(r, "ripple%")
		id, _ := tb.Value(r, "ideal%")
		if rp > id+0.01 {
			t.Fatalf("%s: ripple %.2f exceeds ideal %.2f", r, rp, id)
		}
	}
}

func TestArchExperimentDiagonalWins(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes per-geometry plans")
	}
	s := fastSuite()
	tb, err := s.Arch()
	if err != nil {
		t.Fatal(err)
	}
	// The 16KB-tuned plan must do at least as well on 16KB as on 64KB
	// (mismatched geometry forfeits gain).
	own, ok1 := tb.Value("finagle-http@16KB/4w", "run@16KB/4w%")
	far, ok2 := tb.Value("finagle-http@16KB/4w", "run@64KB/8w%")
	if !ok1 || !ok2 {
		t.Fatal("arch table missing cells")
	}
	if own < far {
		t.Fatalf("mismatched geometry outperformed the tuned one: %.2f vs %.2f", own, far)
	}
}

func TestCodeLayoutComposes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layout optimizer and two pipelines")
	}
	s := fastSuite()
	tb, err := s.CodeLayout()
	if err != nil {
		t.Fatal(err)
	}
	lay, _ := tb.Value("finagle-http", "layout%")
	both, _ := tb.Value("finagle-http", "layout+ripple%")
	if both < lay {
		t.Fatalf("composition lost the layout gain: %.2f vs %.2f", both, lay)
	}
}

func TestLimitExperimentsOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs FDIP simulations")
	}
	s := fastSuite()
	fig2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	fdip, _ := fig2.Value("finagle-http", "fdip+lru%")
	idealRepl, _ := fig2.Value("finagle-http", "fdip+ideal-repl%")
	idealCache, _ := fig2.Value("finagle-http", "ideal-cache%")
	if !(fdip <= idealRepl+0.05 && idealRepl <= idealCache+0.05) {
		t.Fatalf("orderings violated: %.2f / %.2f / %.2f", fdip, idealRepl, idealCache)
	}

	fig3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	ideal, _ := fig3.Value("finagle-http", "ideal%")
	if ideal < 0 {
		t.Fatalf("fig3 ideal negative: %.2f", ideal)
	}

	obs, err := s.Obs12()
	if err != nil {
		t.Fatal(err)
	}
	total, _ := obs.Value("finagle-http", "fdip total%")
	obs1, _ := obs.Value("finagle-http", "fdip obs1(pollute)%")
	if obs1 > total+0.05 {
		t.Fatalf("obs1 (%.2f) exceeds the total (%.2f)", obs1, total)
	}
}

func TestFig13OnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("per-input analyses")
	}
	s := fastSuite()
	tb, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Value("finagle-http", "profile#0%"); !ok {
		t.Fatal("fig13 missing generic column")
	}
	if _, ok := tb.Value("finagle-http", "input-specific%"); !ok {
		t.Fatal("fig13 missing specific column")
	}
}

func TestDemoteAndGranularityOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("re-evaluates tuned plans")
	}
	s := fastSuite()
	dem, err := s.Demote()
	if err != nil {
		t.Fatal(err)
	}
	if len(dem.Rows()) != 1 {
		t.Fatalf("demote rows = %v", dem.Rows())
	}
	gran, err := s.Granularity()
	if err != nil {
		t.Fatal(err)
	}
	if len(gran.Rows()) != 1 {
		t.Fatalf("granularity rows = %v", gran.Rows())
	}
}

// TestParallelMatchesSerial is the determinism contract of the runner
// rewiring: the rendered output of a suite at -j 8 must be byte-identical
// to the same suite at -j 1.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	render := func(workers int) string {
		s := New(Config{
			Apps:         []string{"finagle-http", "kafka"},
			TraceBlocks:  30_000,
			WarmupBlocks: 10_000,
			Thresholds:   []float64{0.55, 0.95},
			Workers:      workers,
			Log:          nil,
		})
		var buf bytes.Buffer
		// fig8 exercises the ripple pipeline under the Random policy, where
		// concurrent PlanAt calls once raced on the shared per-app Analysis.
		// arch and phases have several cells per app, and xprefetch
		// formats its own last column.
		for _, id := range []string{"fig2", "fig8", "demote", "arch", "phases", "xprefetch"} {
			if err := s.Run(id, &buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("parallel output diverges from serial:\n--- j=1\n%s\n--- j=8\n%s", serial, parallel)
	}
}

// TestWarmStoreSkipsAllSimulation is the incremental-rerun contract: a
// second suite sharing the cache directory must serve the same experiment
// without computing a single job, and render byte-identically.
func TestWarmStoreSkipsAllSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := Config{
		Apps:         []string{"kafka"},
		TraceBlocks:  30_000,
		WarmupBlocks: 10_000,
		Thresholds:   []float64{0.55, 0.95},
		CacheDir:     dir,
		Log:          nil,
	}
	s1 := New(cfg)
	var cold bytes.Buffer
	if err := s1.Run("fig1", &cold); err != nil {
		t.Fatal(err)
	}
	if s1.Stats().Computed == 0 {
		t.Fatal("cold suite computed nothing")
	}

	s2 := New(cfg)
	var warm bytes.Buffer
	if err := s2.Run("fig1", &warm); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Computed != 0 {
		t.Fatalf("warm suite recomputed %d job(s): %+v", st.Computed, st)
	}
	if cold.String() != warm.String() {
		t.Fatalf("cache round trip changed the render:\n--- cold\n%s\n--- warm\n%s", cold.String(), warm.String())
	}
}

// TestPartialOverlapIsIncremental: a different experiment that shares
// primitives (compulsory reuses fig1's none/lru runs) must be assembled
// entirely from store hits in a fresh process.
func TestPartialOverlapIsIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := Config{
		Apps:         []string{"kafka"},
		TraceBlocks:  30_000,
		WarmupBlocks: 10_000,
		Thresholds:   []float64{0.55, 0.95},
		CacheDir:     dir,
		Log:          nil,
	}
	s1 := New(cfg)
	if _, err := s1.Tables("fig1"); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	if _, err := s2.Tables("compulsory"); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Computed != 0 {
		t.Fatalf("overlapping experiment re-simulated %d job(s): %+v", st.Computed, st)
	}
	if st.StoreHits == 0 {
		t.Fatalf("overlapping experiment never consulted the store: %+v", st)
	}
}

func TestEmptyTableRenders(t *testing.T) {
	tb := NewTable("empty", "nothing", "k", "v").WithMean()
	var buf bytes.Buffer
	tb.Render(&buf) // must not panic
	if _, ok := tb.Mean("v"); ok {
		t.Fatal("mean over zero rows")
	}
	if len(tb.Rows()) != 0 {
		t.Fatal("phantom rows")
	}
}

func TestTableMixedRowWidths(t *testing.T) {
	tb := NewTable("mixed", "t", "k", "a", "b")
	tb.AddRow("short", "1") // fewer cells than columns
	tb.AddRowF("full", "%.0f", 2, 3)
	var buf bytes.Buffer
	tb.Render(&buf) // must not panic on the ragged row
	if v, ok := tb.Value("full", "b"); !ok || v != 3 {
		t.Fatalf("Value(full,b) = %v,%v", v, ok)
	}
	if _, ok := tb.Value("short", "b"); ok {
		t.Fatal("missing cell reported a value")
	}
}

// TestStoreSignatureShapes pins the suffixes the suite appends to its
// config prefix: stores warmed by earlier builds stay hittable only while
// these strings are unchanged.
func TestStoreSignatureShapes(t *testing.T) {
	s := fastSuite()
	th := s.thSig()
	for _, c := range []struct{ got, want string }{
		{s.oracleSig("a", "fdip"), "|oracle|app=a|pf=fdip"},
		{s.cellSig("fig3", "x"), "|cell|th=" + th + "|exp=fig3|key=x"},
	} {
		if c.got != s.base+c.want {
			t.Errorf("signature %q, want base + %q", c.got, c.want)
		}
	}
}

func TestTRRIPZooOnSmallSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Ripple pipeline")
	}
	s := fastSuite()
	tb, err := s.TRRIPZoo()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Value("finagle-http", "trrip%"); !ok {
		t.Fatal("trrip table missing hardware baseline column")
	}
	cov, ok := tb.Value("finagle-http", "coverage%")
	if !ok || cov < 0 || cov > 100 {
		t.Fatalf("ripple-trrip coverage = %v,%v", cov, ok)
	}
}
