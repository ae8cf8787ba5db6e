package opt

import (
	"fmt"
	"testing"

	"ripple/internal/cache"
	"ripple/internal/stats"
)

// benchCfg is a 32 KiB, 8-way, 64-set geometry typical of an L1I.
var benchCfg = cache.Config{SizeBytes: 32768, Ways: 8, LineBytes: 64}

// benchEvents models an instruction stream: a hot working set with a cold
// tail and 20% prefetch traffic.
func benchEvents(n int) []Event {
	rng := stats.NewRNG(0xBE7ADE)
	ev := make([]Event, n)
	for i := range ev {
		l := uint64(rng.Intn(512))
		if rng.Bool(0.25) {
			l = uint64(512 + rng.Intn(16384))
		}
		ev[i] = Event{Line: l, Prefetch: rng.Bool(0.2)}
	}
	return ev
}

// BenchmarkOracle compares the two streaming oracle engines at two
// trace lengths. B/op is the point: exact-stream pays an 8 B/event
// next-use index, and sampled is flat regardless of trace length.
func BenchmarkOracle(b *testing.B) {
	for _, n := range []int{50000, 500000} {
		ev := benchEvents(n)
		src := SliceEvents(ev)
		run := func(name string, fn func(b *testing.B)) {
			b.Run(fmt.Sprintf("engine=%s/events=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				fn(b)
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
		run("exact-stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateSource(src, benchCfg, ModeDemandMIN, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		run("sampled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateSampled(src, benchCfg, ModeDemandMIN, OPTGenConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
