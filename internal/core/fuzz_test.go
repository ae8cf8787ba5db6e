package core

import (
	"bytes"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/frontend"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// FuzzLoadPlan feeds arbitrary bytes to the plan loader (rippleinject's
// and ripplesim's -plan input): it must reject garbage with an error,
// never panic, and whatever it accepts must survive a Save/LoadPlan
// round trip unchanged.
func FuzzLoadPlan(f *testing.F) {
	for _, p := range []*Plan{
		{Program: "seed", Threshold: 0.5, Injections: map[program.BlockID][]uint64{}},
		{
			Program: "seed", Threshold: 0.35,
			Injections:   map[program.BlockID][]uint64{3: {7, 9}, 11: {2}},
			WindowsTotal: 40, WindowsCovered: 12, SkippedJIT: 2, SkippedKernel: 1,
		},
	} {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("gobbledygook"))

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := plan.Save(&saved); err != nil {
			t.Fatalf("accepted plan does not save: %v", err)
		}
		again, err := LoadPlan(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved plan does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("plan changed across a Save/LoadPlan round trip:\n%x\n%x", saved.Bytes(), resaved.Bytes())
		}
		if len(again.Injections) != len(plan.Injections) {
			t.Fatalf("round trip kept %d of %d cue blocks", len(again.Injections), len(plan.Injections))
		}
	})
}

// FuzzFDIPTape: a run that replays its batch's FDIP tape returns the
// live FDIP run's Result field for field, over fuzzed walk seeds, trace
// lengths (the empty trace included), warmups, policies, hint modes,
// layouts and plan thresholds.
func FuzzFDIPTape(f *testing.F) {
	m, _ := workload.ByName("kafka")
	app, err := workload.Build(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0), uint16(3000), uint16(1000), uint8(0), false, false, uint8(55))
	f.Add(uint64(7), uint16(1), uint16(0), uint8(6), true, true, uint8(5))
	f.Add(uint64(42), uint16(5000), uint16(5000), uint8(3), false, true, uint8(95))
	f.Fuzz(func(t *testing.T, seed uint64, blocks, warmup uint16, policy uint8, demote, shift bool, threshold uint8) {
		walk := *app
		walk.Model.Seed ^= seed
		src := blockseq.SliceSource(walk.Trace(0, int(blocks)%6000))
		var plan *Plan
		if len(src) > 0 {
			a, err := Analyze(app.Prog, src, DefaultAnalysisConfig())
			if err != nil {
				t.Fatal(err)
			}
			plan = a.PlanAt(float64(threshold%101) / 100)
		}
		names := replacement.Names()
		cfg := TuneConfig{
			Params: frontend.DefaultParams(), Policy: names[int(policy)%len(names)], Prefetcher: "fdip",
			WarmupBlocks: int(warmup), ShiftLayout: shift,
		}
		if demote {
			cfg.Hints = frontend.HintDemote
		}
		live, err := RunPlan(app.Prog, src, cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := runPlan(app.Prog, src, cfg, plan, tapeBatch(t, app.Prog, src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("replay differs from live FDIP\nlive:   %+v\nreplay: %+v", live, replayed)
		}
	})
}
