package prefetch

import (
	"testing"

	"ripple/internal/bpred"
	"ripple/internal/isa"
	"ripple/internal/program"
)

func TestRegistry(t *testing.T) {
	prog := straightLine(t)
	for _, name := range Names() {
		p, err := New(name, prog)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("bogus", prog); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

// straightLine: one function of fall-through blocks ending in ret.
func straightLine(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("line")
	bd.StartFunc("f", false)
	var ids []program.BlockID
	for i := 0; i < 8; i++ {
		term := isa.TermFallthrough
		if i == 7 {
			term = isa.TermRet
		}
		ids = append(ids, bd.AddBlock(64, term))
	}
	for i := 0; i < 7; i++ {
		bd.SetFallthrough(ids[i], ids[i+1])
	}
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNLPPrefetchesNextLines(t *testing.T) {
	prog := straightLine(t)
	p := NewNLP(prog, 2)
	got := p.OnBlockRetire(0, 1, []uint64{99})
	// Block 0 occupies line 0; NLP must append lines 1 and 2.
	if len(got) != 3 || got[0] != 99 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("NLP returned %v, want [99 1 2]", got)
	}
}

func TestNonePrefetchesNothing(t *testing.T) {
	if issued := (None{}).OnBlockRetire(0, 1, nil); len(issued) != 0 {
		t.Fatalf("None issued prefetches %v", issued)
	}
}

func TestFDIPCoversStraightLinePath(t *testing.T) {
	prog := straightLine(t)
	f := NewFDIP(prog, bpred.DefaultConfig(), 16)
	issued := map[uint64]bool{}
	// Walk the straight-line path; the runahead engine should cover the
	// upcoming blocks' lines (each block is exactly one 64B line here).
	for b := program.BlockID(0); b < 6; b++ {
		for _, l := range f.OnBlockRetire(b, b+1, nil) {
			issued[l] = true
		}
	}
	// After retiring blocks 0..5 with 2 steps/retire, the engine must
	// have prefetched well past block 6.
	if !issued[uint64(6)] || !issued[uint64(7)] {
		t.Fatalf("FDIP did not cover upcoming lines: %v", issued)
	}
	if f.Issued == 0 {
		t.Fatal("no prefetches counted")
	}
}

// branchy: b0(cond -> b2 / b1), b1(jump b3), b2(fall b3), b3(jump b0).
func branchy(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("branchy")
	bd.StartFunc("f", false)
	b0 := bd.AddBlock(64, isa.TermCondBranch)
	b1 := bd.AddBlock(64, isa.TermJump)
	b2 := bd.AddBlock(64, isa.TermFallthrough)
	b3 := bd.AddBlock(64, isa.TermJump)
	bd.SetCond(b0, b2, b1)
	bd.SetJump(b1, b3)
	bd.SetFallthrough(b2, b3)
	bd.SetJump(b3, b0)
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFDIPSquashesOnMispredict(t *testing.T) {
	prog := branchy(t)
	f := NewFDIP(prog, bpred.DefaultConfig(), 8)
	// Train a strongly-taken pattern, then flip the outcome repeatedly:
	// squashes must be counted.
	seq := []struct{ b, next program.BlockID }{
		{0, 2}, {2, 3}, {3, 0},
	}
	for i := 0; i < 10; i++ {
		for _, s := range seq {
			f.OnBlockRetire(s.b, s.next, nil)
		}
	}
	before := f.Squashes
	// Now take the other side: the FTQ holds the taken path and must be
	// squashed.
	f.OnBlockRetire(0, 1, nil)
	if f.Squashes <= before {
		t.Fatal("mispredicted branch did not squash the FTQ")
	}
}

func TestFDIPBoundedIssueRate(t *testing.T) {
	prog := straightLine(t)
	f := NewFDIP(prog, bpred.DefaultConfig(), 16)
	issues := len(f.OnBlockRetire(0, 1, nil))
	// With stepsPerRetire=2 and one-line blocks, the first retire can
	// issue at most 2 lines' worth of prefetches.
	if issues > 2*2 {
		t.Fatalf("first retire issued %d prefetch lines, want <= 4", issues)
	}
}

func TestTIFSReplaysMissStreams(t *testing.T) {
	prog := straightLine(t)
	p := NewTIFS(prog, 64, 3)
	var issued []uint64
	// First pass over the miss stream 10,11,12,13: record only.
	for _, l := range []uint64{10, 11, 12, 13} {
		issued = p.OnDemandMiss(l, issued)
	}
	if len(issued) != 0 {
		t.Fatalf("cold pass issued %v", issued)
	}
	// Second occurrence of 10 replays its recorded successors.
	issued = p.OnDemandMiss(10, issued)
	if len(issued) != 3 || issued[0] != 11 || issued[1] != 12 || issued[2] != 13 {
		t.Fatalf("replay issued %v, want [11 12 13]", issued)
	}
	if p.Replays != 1 {
		t.Fatalf("Replays = %d", p.Replays)
	}
	if p.MetadataBytes() <= 0 {
		t.Fatal("metadata accounting missing")
	}
}

func TestTIFSViaRegistry(t *testing.T) {
	prog := straightLine(t)
	p, err := New("tifs", prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(MissObserver); !ok {
		t.Fatal("tifs does not observe misses")
	}
}
