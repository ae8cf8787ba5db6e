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

// BenchmarkOracle measures the streaming oracle engine at two trace
// lengths. B/op grows with the stream: exact-stream pays an 8 B/event
// next-use index.
func BenchmarkOracle(b *testing.B) {
	for _, n := range []int{50000, 500000} {
		src := SliceEvents(benchEvents(n))
		b.Run(fmt.Sprintf("engine=exact-stream/events=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateSource(src, benchCfg, ModeDemandMIN, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
