package core

import (
	"bytes"
	"testing"

	"ripple/internal/program"
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
