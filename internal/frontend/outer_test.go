package frontend

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/bpred"
	"ripple/internal/cache"
	"ripple/internal/prefetch"
	"ripple/internal/replacement"
)

// takeIdle empties the free list and returns the pairs it held.
func takeIdle() []*outer {
	outers.Lock()
	defer outers.Unlock()
	idle := outers.free
	outers.free = nil
	return idle
}

// setIdle makes pairs the free list.
func setIdle(pairs []*outer) {
	outers.Lock()
	defer outers.Unlock()
	outers.free = pairs
}

// TestL3BuiltOnFirstMiss runs each row of the reuse matrix twice from an
// empty free list and reads the one pair the runs leave on it. kafka's
// and drupal's text fits the default L2, so their default-geometry rows,
// every prefetcher included, release a pair without an L3. The rows
// whose L2 is smaller than the text, and the stray prefetcher's rows,
// whose lines outside the text miss the L2, build the L3 once per pair:
// the second run reuses the first run's L3, and after each run it is
// rolled back to its mark, the state of an L3 just built and prewarmed.
func TestL3BuiltOnFirstMiss(t *testing.T) {
	defer setIdle(takeIdle())
	for _, c := range reuseCases(t) {
		wantL3 := strings.Contains(c.name, "small-l2l3") || strings.Contains(c.name, "stray")
		takeIdle()
		var l3 *cache.Cache
		for run := 0; run < 2; run++ {
			c.check(t, "from an empty free list")
			idle := takeIdle()
			if len(idle) != 1 {
				t.Fatalf("%s run %d: the free list holds %d pairs, want 1", c.name, run, len(idle))
			}
			o := idle[0]
			if got := o.l3 != nil; got != wantL3 {
				t.Fatalf("%s run %d: the released pair has an L3: %t, want %t", c.name, run, got, wantL3)
			}
			setIdle(idle)
			if o.l3 == nil {
				continue
			}
			if run == 1 && o.l3 != l3 {
				t.Errorf("%s: the second run built another L3", c.name)
			}
			l3 = o.l3
			fresh := o.prewarmed(o.l3cfg)
			if o.l3.Stats != fresh.Stats {
				t.Errorf("%s run %d: released L3 stats %+v, want the prewarmed %+v", c.name, run, o.l3.Stats, fresh.Stats)
			}
			first, n := textLines(c.prog)
			for l := first - 64; l < first+uint64(n)+64; l++ {
				if o.l3.Contains(l) != fresh.Contains(l) {
					t.Fatalf("%s run %d: line %#x resident in the released L3: %t, prewarmed: %t",
						c.name, run, l, o.l3.Contains(l), fresh.Contains(l))
				}
			}
		}
	}
}

// TestFirstRunAllocBytes bounds the heap bytes of a 20k-block kafka
// LRU+FDIP Run from an empty free list, which builds its own pair: the
// prewarmed L2 and its journal, the layout and line tables, the L1I and
// the FDIP engine (1.76 MB measured). kafka's text fits the L2, so the
// pair holds no L3; a pair that builds its L3 with the L2 (6.32 MB
// measured) fails the bound. The bytes come from runtime/metrics, which
// counts them closely enough at this scale.
func TestFirstRunAllocBytes(t *testing.T) {
	const maxBytes = 3 << 20
	app := catalogApps(t)["kafka"]
	tr := blockseq.SliceSource(app.Trace(0, 20_000))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer setIdle(takeIdle())

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	pf := prefetch.NewFDIP(app.Prog, bpred.DefaultConfig(), 32)
	if _, err := Run(DefaultParams(), app.Prog, tr, Options{Policy: replacement.NewLRU(), Prefetcher: pf}); err != nil {
		t.Fatal(err)
	}
	metrics.Read(sample)
	bytes := sample[0].Value.Uint64() - before
	t.Logf("first Run: %d B", bytes)
	if bytes > maxBytes {
		t.Errorf("the first Run allocates %d B, want <= %d", bytes, maxBytes)
	}
}
