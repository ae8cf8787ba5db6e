package bpred

import (
	"testing"

	"ripple/internal/isa"
	"ripple/internal/program"
)

// condProgram: f: b0(cond taken->b2, fall->b1), b1(ret), b2(ret).
func condProgram(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("cond")
	bd.StartFunc("f", false)
	b0 := bd.AddBlock(16, isa.TermCondBranch)
	b1 := bd.AddBlock(16, isa.TermRet)
	b2 := bd.AddBlock(16, isa.TermRet)
	bd.SetCond(b0, b2, b1)
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDirectionPredictorLearnsBias(t *testing.T) {
	prog := condProgram(t)
	p := New(DefaultConfig())
	// Train: block 0 always taken.
	for i := 0; i < 50; i++ {
		p.Retire(prog, 0, 2)
	}
	if p.CondPredictions != 50 {
		t.Fatalf("CondPredictions = %d", p.CondPredictions)
	}
	// After warmup the mispredict count must stop growing.
	before := p.CondMispredicts
	for i := 0; i < 50; i++ {
		p.Retire(prog, 0, 2)
	}
	if p.CondMispredicts != before {
		t.Fatalf("mispredicts grew on a fully biased branch: %d -> %d", before, p.CondMispredicts)
	}
	// And the speculative path predicts taken.
	p.ResyncSpec()
	next, ok := p.PredictNextSpec(prog, 0)
	if !ok || next != 2 {
		t.Fatalf("spec prediction = %v,%v want 2", next, ok)
	}
}

// callProgram: f: c0(call u0, ret-to r0), r0(ret); u: u0(ret).
func callProgram(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("call")
	bd.StartFunc("f", false)
	c0 := bd.AddBlock(16, isa.TermCall)
	r0 := bd.AddBlock(16, isa.TermRet)
	bd.StartFunc("u", false)
	u0 := bd.AddBlock(16, isa.TermRet)
	bd.SetCall(c0, u0, r0)
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRASPredictsReturns(t *testing.T) {
	prog := callProgram(t)
	p := New(DefaultConfig())
	// BTB must learn the call target first; the first retire installs it.
	p.Retire(prog, 0, 2) // call c0 -> u0
	// Retire the return: committed RAS has r0 (block 1).
	if pred, correct := p.Retire(prog, 2, 1); !correct || pred != 1 {
		t.Fatalf("ret retire predicted %v (correct=%v), want 1", pred, correct)
	}
	if p.RetMispredicts != 0 {
		t.Fatalf("RetMispredicts = %d", p.RetMispredicts)
	}
	// Speculative walk: call pushes, ret pops.
	p.ResyncSpec()
	next, ok := p.PredictNextSpec(prog, 0)
	if !ok || next != 2 {
		t.Fatalf("spec call -> %v,%v", next, ok)
	}
	next, ok = p.PredictNextSpec(prog, 2)
	if !ok || next != 1 {
		t.Fatalf("spec ret -> %v,%v, want return site 1", next, ok)
	}
}

func TestRetWithEmptyRASMispredicts(t *testing.T) {
	prog := callProgram(t)
	p := New(DefaultConfig())
	if _, correct := p.Retire(prog, 2, 1); correct {
		t.Fatal("ret with empty RAS predicted correctly?")
	}
	if p.RetMispredicts != 1 {
		t.Fatalf("RetMispredicts = %d", p.RetMispredicts)
	}
}

// indirectProgram: f: i0(icall candidates u0,v0; ret site r0), r0(ret);
// u: u0(ret); v: v0(ret).
func indirectProgram(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("ind")
	bd.StartFunc("f", false)
	i0 := bd.AddBlock(16, isa.TermIndirectCall)
	r0 := bd.AddBlock(16, isa.TermRet)
	bd.StartFunc("u", false)
	u0 := bd.AddBlock(16, isa.TermRet)
	bd.StartFunc("v", false)
	v0 := bd.AddBlock(16, isa.TermRet)
	bd.SetIndirect(i0, []program.BlockID{u0, v0}, r0)
	p, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIndirectPredictorLearnsStableTarget(t *testing.T) {
	prog := indirectProgram(t)
	p := New(DefaultConfig())
	// Cold: the spec walk cannot predict an untrained indirect.
	if _, ok := p.PredictNextSpec(prog, 0); ok {
		t.Fatal("cold indirect predicted")
	}
	// Train on a stable target (u0 = block 2). The same GHR context
	// recurs because we resync before each retire.
	for i := 0; i < 8; i++ {
		p.ResyncSpec()
		p.Retire(prog, 0, 2)
		p.Retire(prog, 2, 1) // pop the pushed return site
	}
	before := p.IndMispredicts
	p.Retire(prog, 0, 2)
	if p.IndMispredicts != before {
		t.Fatal("stable indirect target still mispredicted after training")
	}
}

func TestBTBCapacityStallsColdDirects(t *testing.T) {
	prog := condProgram(t)
	p := New(DefaultConfig())
	// The cond branch's taken target is unknown to the BTB before any
	// retire; if the direction predictor says taken, the spec walk cannot
	// proceed. Train the direction first, then drop the BTB entry by
	// aliasing is hard to arrange — instead verify the walk works right
	// after the BTB is installed and that a fresh predictor (cold BTB)
	// with a taken prediction stalls.
	for i := 0; i < 20; i++ {
		p.Retire(prog, 0, 2) // trains taken + installs BTB
	}
	p.ResyncSpec()
	if _, ok := p.PredictNextSpec(prog, 0); !ok {
		t.Fatal("warm BTB walk stalled")
	}

	fresh := New(DefaultConfig())
	// Force its direction state toward taken without installing the BTB
	// entry (train via another block ID that aliases nothing useful).
	for i := 0; i < 20; i++ {
		fresh.trainDir(0, true)
		fresh.committedGHR <<= 1
	}
	fresh.ResyncSpec()
	if next, ok := fresh.PredictNextSpec(prog, 0); ok && next == 2 {
		t.Fatal("cold BTB supplied a taken target")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := newRAS(2)
	r.push(10)
	r.push(11)
	r.push(12) // overflow: 10 dropped
	if v, ok := r.pop(); !ok || v != 12 {
		t.Fatalf("pop = %v,%v", v, ok)
	}
	if v, ok := r.pop(); !ok || v != 11 {
		t.Fatalf("pop = %v,%v", v, ok)
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from drained RAS succeeded (oldest should have been dropped)")
	}
}

// TestChooserPicksBetterComponent: a branch whose outcome alternates with
// a period-2 pattern is hopeless for bimodal but perfect for gshare once
// history kicks in; the hybrid must converge to gshare's accuracy.
func TestChooserPicksBetterComponent(t *testing.T) {
	prog := condProgram(t)
	p := New(DefaultConfig())
	// Alternating taken/not-taken: bimodal oscillates, gshare with the
	// outcome history learns the alternation exactly.
	warm := 600
	for i := 0; i < warm; i++ {
		next := program.BlockID(1) // not taken -> fallthrough b1
		if i%2 == 0 {
			next = 2
		}
		p.Retire(prog, 0, next)
	}
	before := p.CondMispredicts
	for i := warm; i < warm+200; i++ {
		next := program.BlockID(1)
		if i%2 == 0 {
			next = 2
		}
		p.Retire(prog, 0, next)
	}
	mis := p.CondMispredicts - before
	if mis > 10 {
		t.Fatalf("%d/200 mispredicts on a perfectly periodic branch", mis)
	}
}

func TestSpecFollowsCommittedAfterResync(t *testing.T) {
	prog := callProgram(t)
	p := New(DefaultConfig())
	// Commit a call (pushes RAS, installs BTB).
	p.Retire(prog, 0, 2)
	p.ResyncSpec()
	// The speculative walk now predicts the same call and its return.
	n1, ok := p.PredictNextSpec(prog, 0)
	if !ok || n1 != 2 {
		t.Fatalf("spec call -> %v,%v", n1, ok)
	}
	n2, ok := p.PredictNextSpec(prog, 2)
	if !ok || n2 != 1 {
		t.Fatalf("spec ret -> %v,%v", n2, ok)
	}
	// Speculative pops must not consume the committed RAS.
	if got, correct := p.Retire(prog, 2, 1); !correct || got != 1 {
		t.Fatalf("committed ret broken after spec walk: %v,%v", got, correct)
	}
}

func TestBTBAliasingIsRare(t *testing.T) {
	// Install many entries; lookups for installed blocks must hit, and a
	// never-installed block should (almost always) miss rather than
	// return a bogus alias.
	p := New(DefaultConfig())
	bogus := 0
	const installed = 512
	for i := 0; i < installed; i++ {
		p.btbInstall(program.BlockID(i), program.BlockID(i+1))
	}
	for i := 0; i < installed; i++ {
		if _, ok := p.btbLookup(program.BlockID(i)); !ok {
			// Direct-mapped: collisions evict; just require most survive.
			bogus++
		}
	}
	if bogus > installed/2 {
		t.Fatalf("%d/%d installed BTB entries lost to conflicts", bogus, installed)
	}
	falseHits := 0
	for i := 100_000; i < 100_400; i++ {
		if _, ok := p.btbLookup(program.BlockID(i)); ok {
			falseHits++
		}
	}
	if falseHits > 40 {
		t.Fatalf("%d/400 false BTB hits: partial tags too weak", falseHits)
	}
}
