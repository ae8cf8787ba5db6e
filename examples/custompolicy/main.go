// Custompolicy: Ripple is replacement-policy agnostic. This example plugs
// a user-defined FIFO policy into the simulated L1I through the public
// Policy interface, and shows that Ripple's injected invalidations improve
// it just like they improve LRU and Random — no knowledge of the policy is
// needed, because the eviction decisions come from the profile.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"ripple"
)

// FIFO evicts the oldest-filled line of a set, ignoring hits entirely.
// It implements ripple.Policy.
type FIFO struct {
	ways  int
	stamp []uint64
	clock uint64
}

// Name implements ripple.Policy.
func (p *FIFO) Name() string { return "fifo" }

// Reset implements ripple.Policy.
func (p *FIFO) Reset(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint64, sets*ways)
	p.clock = 0
}

// OnHit implements ripple.Policy: FIFO ignores hits.
func (p *FIFO) OnHit(set, way int, ai ripple.AccessInfo) {}

// OnFill implements ripple.Policy.
func (p *FIFO) OnFill(set, way int, ai ripple.AccessInfo) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// OnEvict implements ripple.Policy.
func (p *FIFO) OnEvict(set, way int, reref bool) {}

// Victim implements ripple.Policy: oldest fill goes first.
func (p *FIFO) Victim(set int, ai ripple.AccessInfo) int {
	best, bestStamp := 0, p.stamp[set*p.ways]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[set*p.ways+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

func main() {
	const (
		traceBlocks = 300_000
		warmup      = 100_000
	)
	params := ripple.DefaultParams()

	app, err := ripple.BuildWorkload(ripple.MustWorkload("kafka"))
	if err != nil {
		log.Fatal(err)
	}
	profile := ripple.SliceSource(app.Trace(0, traceBlocks))

	// Baseline: plain FIFO.
	pf, err := ripple.NewPrefetcher("none", app.Prog)
	if err != nil {
		log.Fatal(err)
	}
	base, err := ripple.Simulate(params, app.Prog, profile, ripple.Options{
		Policy:       &FIFO{},
		Prefetcher:   pf,
		WarmupBlocks: warmup,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ripple on top of FIFO: analyze once, tune the threshold by
	// simulating candidate plans under the custom policy.
	analysis, err := ripple.Analyze(app.Prog, profile, ripple.DefaultAnalysisConfig())
	if err != nil {
		log.Fatal(err)
	}
	bestCycles := base.Cycles
	var best ripple.Result
	var bestTh float64
	for _, th := range []float64{0.45, 0.55, 0.65, 0.75, 0.85, 0.95} {
		plan := analysis.PlanAt(th)
		injected := plan.Apply(app.Prog)
		pf, err := ripple.NewPrefetcher("none", injected)
		if err != nil {
			log.Fatal(err)
		}
		r, err := ripple.Simulate(params, injected, profile, ripple.Options{
			Policy:       &FIFO{},
			Prefetcher:   pf,
			WarmupBlocks: warmup,
		})
		if err != nil {
			log.Fatal(err)
		}
		if r.Cycles < bestCycles {
			bestCycles, best, bestTh = r.Cycles, r, th
		}
	}

	fmt.Printf("kafka, no prefetch, custom FIFO policy\n")
	fmt.Printf("  fifo:        IPC %.3f, MPKI %.2f\n", base.IPC(), base.MPKI())
	if bestCycles < base.Cycles {
		fmt.Printf("  ripple-fifo: IPC %.3f, MPKI %.2f (threshold %.0f%%, coverage %.0f%%)\n",
			best.IPC(), best.MPKI(), bestTh*100, best.Coverage()*100)
		fmt.Printf("  speedup: %+.2f%%\n", ripple.Speedup(base, best))
	} else {
		fmt.Println("  ripple found no improving threshold for FIFO on this trace")
	}
}
