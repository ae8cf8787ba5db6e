package program_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/layout"
	"ripple/internal/program"
	"ripple/internal/workload"
)

// freshFingerprint hashes the program's image the way Fingerprint did
// before it kept a memo.
func freshFingerprint(t *testing.T, p *program.Program) string {
	t.Helper()
	h := sha256.New()
	if err := p.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMemo: the memoized fingerprint equals a fresh hash of
// the image however the program was made: built, loaded, cloned and laid
// out again, injected either way, or reordered by the layout optimizer.
// Each derived program is made after its parent's fingerprint is
// memoized, so a memo carried over to a changed program fails.
func TestFingerprintMemo(t *testing.T) {
	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	prog := app.Prog
	check := func(name string, p *program.Program) string {
		t.Helper()
		got, err := p.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if want := freshFingerprint(t, p); got != want {
			t.Fatalf("%s: Fingerprint %s, want %s", name, got, want)
		}
		return got
	}
	built := check("built", prog)

	var img bytes.Buffer
	if err := prog.Save(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := program.Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	if check("loaded", loaded) != built {
		t.Fatal("a loaded image fingerprints unlike the program it was saved from")
	}

	relaid := prog.Clone()
	for i, j := 0, len(relaid.Funcs)-1; i < len(relaid.Funcs); i, j = i+1, j-1 {
		relaid.FuncOrder = append(relaid.FuncOrder, program.FuncID(j))
	}
	relaid.Layout(prog.Base)
	victims := map[program.BlockID][]uint64{0: {prog.Blocks[5].FirstLine()}, 9: {prog.Blocks[40].FirstLine()}}
	prof, err := layout.ProfileFromTrace(prog, blockseq.SliceSource(app.Trace(0, 5_000)))
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := layout.Optimize(prog, prof, layout.Options{ReorderFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*program.Program{
		"Clone+Layout":                   relaid,
		"WithInjections":                 prog.WithInjections(victims),
		"WithInjectionsPreservingLayout": prog.WithInjectionsPreservingLayout(victims),
		"layout.Optimize":                reordered,
	} {
		if check(name, p) == built {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}

	// Layout drops the memo of the program it lays out.
	relaid.FuncOrder = nil
	relaid.Layout(prog.Base)
	if check("laid out again", relaid) != built {
		t.Fatal("the clone laid out in the original order fingerprints unlike the original")
	}
}

// TestFingerprintMemoAllocs: once computed, Fingerprint allocates
// nothing.
func TestFingerprintMemoAllocs(t *testing.T) {
	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Prog.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { app.Prog.Fingerprint() }); n != 0 {
		t.Fatalf("a memoized Fingerprint allocates %v times", n)
	}
}

// TestFingerprintConcurrent: callers racing on a fresh program all get
// the same fingerprint (run under -race).
func TestFingerprintConcurrent(t *testing.T) {
	m, _ := workload.ByName("finagle-http")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	want := freshFingerprint(t, app.Prog)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = app.Prog.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d got %q, want %s", i, fp, want)
		}
	}
}
