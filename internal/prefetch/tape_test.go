package prefetch

import (
	"runtime"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/workload"
)

// TestTapeSize: FDIP's tape of a 100k-block kafka trace takes at most
// 4 B per block, and holds one op byte per retire.
func TestTapeSize(t *testing.T) {
	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Trace(0, 100_000)
	n := len(tr)
	pf, err := New("fdip", app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := RecordTape(pf.(*FDIP), blockseq.SliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	perBlock := float64(tape.Bytes()) / float64(n)
	t.Logf("tape: %d B over %d blocks, %.2f B/block", tape.Bytes(), n, perBlock)
	if tape.retires != n-1 {
		t.Errorf("tape holds %d retires, want %d", tape.retires, n-1)
	}
	if perBlock > 4 {
		t.Errorf("tape takes %.2f B/block, want <= 4", perBlock)
	}
}

// TestTapePays: a batch records a tape only when its FDIP runs take at
// least tapeRounds rounds of the runs that go at once, and a pool's slots
// beyond GOMAXPROCS do not run at once.
func TestTapePays(t *testing.T) {
	for _, c := range []struct {
		runs, parallel int
		want           bool
	}{
		{11, 1, true}, {11, 2, true}, {11, 3, true}, {11, 4, false}, {11, 12, false},
		{4, 1, true}, {3, 1, false}, {2, 1, false}, {1, 1, false}, {0, 1, false}, {4, 0, true},
	} {
		if got := tapePays(c.runs, c.parallel); got != c.want {
			t.Errorf("tapePays(%d runs, %d at once) = %t, want %t", c.runs, c.parallel, got, c.want)
		}
	}

	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	src := blockseq.SliceSource(app.Trace(0, 100))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if NewBatch(app.Prog, src, 11, 64) == nil {
		t.Error("11 FDIP runs, 2 at a time on GOMAXPROCS 2, record no tape")
	}
	if NewBatch(app.Prog, src, 2, 1) != nil {
		t.Error("2 serial FDIP runs record a tape")
	}
	runtime.GOMAXPROCS(4)
	if NewBatch(app.Prog, src, 11, 64) != nil {
		t.Error("11 FDIP runs, 4 at a time on GOMAXPROCS 4, record a tape")
	}
}
