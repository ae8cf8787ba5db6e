package opt

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"ripple/internal/cache"
	"ripple/internal/stats"
)

// referenceSimulate is the pre-streaming slice engine, kept verbatim as
// the reference the streaming paths must match bit-identically.
func referenceSimulate(events []Event, cfg cache.Config, mode Mode, logEvictions bool) Result {
	nextAny, nextDemand := buildNextIndexes(events)
	nsets := cfg.Sets()
	setMask := uint64(nsets - 1)
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, 0, cfg.Ways)
	}
	res := Result{Mode: mode}
	var clock uint64

	for i := range events {
		ev := &events[i]
		if !ev.Prefetch {
			res.DemandAccesses++
		}
		s := sets[ev.Line&setMask]
		hit := false
		for w := range s {
			if s[w].line == ev.Line {
				hit = true
				clock++
				s[w].last = int32(i)
				s[w].stamp = clock
				if !ev.Prefetch {
					s[w].dead = false
				}
				break
			}
		}
		if hit {
			continue
		}
		if !ev.Prefetch {
			res.DemandMisses++
		} else {
			res.PrefetchFills++
		}
		clock++
		ne := entry{line: ev.Line, last: int32(i), stamp: clock, dead: ev.Prefetch}
		if len(s) < cfg.Ways {
			sets[ev.Line&setMask] = append(s, ne)
			continue
		}
		w := victim(s, mode, nextAny, nextDemand)
		res.Evictions++
		if s[w].dead {
			res.DeadPrefetchEvictions++
		}
		if logEvictions {
			res.EvictionLog = append(res.EvictionLog, Eviction{
				Line:    s[w].line,
				LastUse: s[w].last,
				At:      int32(i),
			})
		}
		s[w] = ne
	}
	return res
}

func randomEvents(rng *stats.RNG, n, lines int, pfOdds float64) []Event {
	ev := make([]Event, n)
	for i := range ev {
		ev[i] = Event{Line: uint64(rng.Intn(lines)), Prefetch: rng.Bool(pfOdds)}
	}
	return ev
}

var streamCfgs = []cache.Config{
	{SizeBytes: 128, Ways: 2, LineBytes: 64},  // 1 set
	{SizeBytes: 512, Ways: 2, LineBytes: 64},  // 4 sets
	{SizeBytes: 2048, Ways: 4, LineBytes: 64}, // 8 sets
}

// TestStreamIndexMatchesBackward: the forward patch-on-reappearance
// builder must produce the exact arrays of the slice-era backward pass,
// on mixed streams, streams with no prefetch (where nextDemand is
// nextAny), streams whose first prefetch comes late, streams of
// prefetches only, and the empty stream.
func TestStreamIndexMatchesBackward(t *testing.T) {
	rng := stats.NewRNG(4097)
	shapes := map[string]func() []Event{
		"mixed":  func() []Event { return randomEvents(rng, 50+rng.Intn(400), 1+rng.Intn(30), 0.3) },
		"demand": func() []Event { return randomEvents(rng, 50+rng.Intn(400), 1+rng.Intn(30), 0) },
		"late-prefetch": func() []Event {
			ev := randomEvents(rng, 50+rng.Intn(400), 1+rng.Intn(30), 0)
			first := len(ev)/2 + rng.Intn(len(ev)/2)
			ev[first].Prefetch = true
			for i := first + 1; i < len(ev); i++ {
				ev[i].Prefetch = rng.Bool(0.3)
			}
			return ev
		},
		"prefetch": func() []Event { return randomEvents(rng, 50+rng.Intn(400), 1+rng.Intn(30), 1) },
		"empty":    func() []Event { return []Event{} },
	}
	for name, gen := range shapes {
		for trial := 0; trial < 20; trial++ {
			ev := gen()
			wantAny, wantDemand := buildNextIndexes(ev)
			idx, err := buildNextIndexesSource(SliceEvents(ev))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(idx.nextAny, wantAny) {
				t.Fatalf("%s trial %d: nextAny diverges", name, trial)
			}
			if !reflect.DeepEqual(idx.nextDemand, wantDemand) {
				t.Fatalf("%s trial %d: nextDemand diverges", name, trial)
			}
		}
	}
}

// TestDemandOnlyIndexAllocs: a demand-only stream's index is one next
// array, which nextDemand shares, with no per-event demand flags. The
// same stream with one prefetch among its last events allocates two more
// objects, the flags and a second next array: 5 B more per event, of
// which the test asks 4.5 to leave room for the runtime's own
// allocations (a second array alone would be 4).
func TestDemandOnlyIndexAllocs(t *testing.T) {
	const n = 1 << 16
	lines := make(LineEvents, n)
	mixed := make(SliceEvents, n)
	for i := range lines {
		lines[i] = uint64(i % 61)
		mixed[i] = Event{Line: lines[i], Prefetch: i == n-100}
	}
	idx, err := buildNextIndexesSource(lines)
	if err != nil {
		t.Fatal(err)
	}
	if &idx.nextDemand[0] != &idx.nextAny[0] {
		t.Fatal("a demand-only stream's nextDemand is a second array")
	}
	measure := func(src EventSource) (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := buildNextIndexesSource(src); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 6 // AllocsPerRun runs once more to warm up
	}
	demandAllocs, demandBytes := measure(lines)
	mixedAllocs, mixedBytes := measure(mixed)
	if mixedAllocs-demandAllocs != 2 {
		t.Errorf("a demand-only index takes %v allocations, one prefetch %v: want 2 fewer", demandAllocs, mixedAllocs)
	}
	if mixedBytes < demandBytes+9*n/2 {
		t.Errorf("a demand-only index allocates %d B, one prefetch %d B: want at least %d B fewer", demandBytes, mixedBytes, 9*n/2)
	}
}

// TestSimulateSourceMatchesReference is the tentpole equivalence suite:
// the streaming engine must be bit-identical to the slice-era engine on
// every mode, geometry, and logging setting, eviction log included.
func TestSimulateSourceMatchesReference(t *testing.T) {
	rng := stats.NewRNG(99)
	modes := []Mode{ModeMIN, ModeDemandMIN, ModePolluteEvict}
	for trial := 0; trial < 30; trial++ {
		ev := randomEvents(rng, 100+rng.Intn(500), 2+rng.Intn(40), 0.25)
		for _, cfg := range streamCfgs {
			for _, mode := range modes {
				for _, logEv := range []bool{false, true} {
					want := referenceSimulate(ev, cfg, mode, logEv)
					got, err := SimulateSource(SliceEvents(ev), cfg, mode, logEv)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d cfg %+v mode %v log %v:\n got %+v\nwant %+v",
							trial, cfg, mode, logEv, got, want)
					}
					if wrap := Simulate(ev, cfg, mode, logEv); !reflect.DeepEqual(wrap, want) {
						t.Fatalf("Simulate wrapper diverges from reference")
					}
				}
			}
		}
	}
}

// TestSimulateSourceModesSharesIndex: the multi-mode entry point must
// equal independent per-mode runs.
func TestSimulateSourceModesSharesIndex(t *testing.T) {
	rng := stats.NewRNG(555)
	ev := randomEvents(rng, 600, 32, 0.3)
	cfg := streamCfgs[1]
	modes := []Mode{ModeMIN, ModeDemandMIN, ModePolluteEvict}
	got, err := SimulateSourceModes(SliceEvents(ev), cfg, modes, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(modes) {
		t.Fatalf("got %d results", len(got))
	}
	for i, mode := range modes {
		want := referenceSimulate(ev, cfg, mode, true)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("mode %v diverges", mode)
		}
	}
}

// referenceBuildOracle is the pre-streaming oracle builder, kept as the
// reference for BuildOracleSource.
func referenceBuildOracle(lines []uint64, cfg cache.Config) *Oracle {
	o := &Oracle{positions: make(map[uint64][]int32, 1<<14)}
	for i, l := range lines {
		o.positions[l] = append(o.positions[l], int32(i))
	}
	o.idealMiss = make([]bool, len(lines))
	events := make([]Event, len(lines))
	for i, l := range lines {
		events[i] = Event{Line: l}
	}
	nextAny, nextDemand := buildNextIndexes(events)
	nsets := cfg.Sets()
	setMask := uint64(nsets - 1)
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, 0, cfg.Ways)
	}
	for i, l := range lines {
		s := sets[l&setMask]
		hit := false
		for w := range s {
			if s[w].line == l {
				hit = true
				s[w].last = int32(i)
				break
			}
		}
		if hit {
			continue
		}
		o.idealMiss[i] = true
		ne := entry{line: l, last: int32(i)}
		if len(s) < cfg.Ways {
			sets[l&setMask] = append(s, ne)
			continue
		}
		w := victim(s, ModeMIN, nextAny, nextDemand)
		s[w] = ne
	}
	return o
}

func TestBuildOracleSourceMatchesReference(t *testing.T) {
	rng := stats.NewRNG(808)
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(400)
		lines := make([]uint64, n)
		for i := range lines {
			lines[i] = uint64(rng.Intn(30))
		}
		for _, cfg := range streamCfgs {
			want := referenceBuildOracle(lines, cfg)
			got := BuildOracle(lines, cfg)
			if !reflect.DeepEqual(got.idealMiss, want.idealMiss) {
				t.Fatalf("trial %d cfg %+v: idealMiss diverges", trial, cfg)
			}
			if !reflect.DeepEqual(got.positions, want.positions) {
				t.Fatalf("trial %d cfg %+v: positions diverge", trial, cfg)
			}
		}
	}
}

// TestStreamTooLong exercises the int32 position-space guard at a
// test-sized boundary: maxStreamEvents events are fine, one more is a
// typed error from every streaming entry point.
func TestStreamTooLong(t *testing.T) {
	old := maxStreamEvents
	maxStreamEvents = 1000
	defer func() { maxStreamEvents = old }()

	ok := randomEvents(stats.NewRNG(7), 1000, 16, 0.2)
	if _, err := SimulateSource(SliceEvents(ok), cfg1set, ModeMIN, false); err != nil {
		t.Fatalf("at the boundary: %v", err)
	}

	over := randomEvents(stats.NewRNG(7), 1001, 16, 0.2)
	if _, err := SimulateSource(SliceEvents(over), cfg1set, ModeMIN, false); !errors.Is(err, ErrStreamTooLong) {
		t.Fatalf("SimulateSource err = %v, want ErrStreamTooLong", err)
	}
	if _, err := SimulateSourceModes(SliceEvents(over), cfg1set, []Mode{ModeMIN}, false); !errors.Is(err, ErrStreamTooLong) {
		t.Fatalf("SimulateSourceModes err = %v, want ErrStreamTooLong", err)
	}
	lines := make([]uint64, 1001)
	if _, err := BuildOracleSource(LineEvents(lines), cfg1set); !errors.Is(err, ErrStreamTooLong) {
		t.Fatalf("BuildOracleSource err = %v, want ErrStreamTooLong", err)
	}
}

// changingSource yields first on its first pass and later on every pass
// after it — a contract violation when the two differ in length, which
// the engine must detect rather than mis-align on.
type changingSource struct {
	first, later []Event
	passes       int
}

func (c *changingSource) Events(yield func(Event) bool) error {
	ev := c.later
	if c.passes == 0 {
		ev = c.first
	}
	c.passes++
	return SliceEvents(ev).Events(yield)
}

func TestNonReplayableSourceDetected(t *testing.T) {
	ev := demand(0, 2, 4, 0, 2)
	for name, later := range map[string][]Event{
		"longer":  demand(0, 2, 4, 0, 2, 6),
		"shorter": ev[:len(ev)-1],
	} {
		src := &changingSource{first: ev, later: later}
		if _, err := SimulateSource(src, cfg1set, ModeMIN, false); !errors.Is(err, ErrNotReplayable) {
			t.Fatalf("%s: err = %v, want ErrNotReplayable", name, err)
		}
	}
}

var errSourceFailed = errors.New("source failed")

// failingSource fails its pass number failPass (1-based) after yielding
// its first after events; every other pass yields all of ev.
type failingSource struct {
	ev              []Event
	failPass, after int
	passes          int
}

func (f *failingSource) Events(yield func(Event) bool) error {
	f.passes++
	if f.passes != f.failPass {
		return SliceEvents(f.ev).Events(yield)
	}
	SliceEvents(f.ev[:f.after]).Events(yield)
	return errSourceFailed
}

// TestSourceErrorsPropagate: a pass that fails, in the indexing pass or
// the replay, fails every engine entry point with the source's error.
func TestSourceErrorsPropagate(t *testing.T) {
	ev := demand(0, 2, 4, 0, 2, 6, 4, 0)
	for _, failPass := range []int{1, 2} {
		for _, after := range []int{0, 3, len(ev)} {
			src := func() *failingSource { return &failingSource{ev: ev, failPass: failPass, after: after} }
			if _, err := SimulateSource(src(), cfg1set, ModeDemandMIN, true); !errors.Is(err, errSourceFailed) {
				t.Errorf("pass %d after %d: SimulateSource err = %v", failPass, after, err)
			}
			if _, err := SimulateSourceModes(src(), cfg1set, []Mode{ModeMIN, ModeDemandMIN}, false); !errors.Is(err, errSourceFailed) {
				t.Errorf("pass %d after %d: SimulateSourceModes err = %v", failPass, after, err)
			}
			if _, err := BuildOracleSource(src(), cfg1set); !errors.Is(err, errSourceFailed) {
				t.Errorf("pass %d after %d: BuildOracleSource err = %v", failPass, after, err)
			}
		}
	}
}

// exhaustiveDemandOptimalMisses brute-forces the minimal *demand*-miss
// count over every forced-fill eviction policy: each miss (demand or
// prefetch) fills and, in a full set, tries every victim; only demand
// misses cost. Exponential — tiny traces only.
func exhaustiveDemandOptimalMisses(ev []Event, ways int) uint64 {
	var rec func(i int, set []uint64) uint64
	rec = func(i int, set []uint64) uint64 {
		if i == len(ev) {
			return 0
		}
		e := ev[i]
		for _, x := range set {
			if x == e.Line {
				return rec(i+1, set)
			}
		}
		var cost uint64
		if !e.Prefetch {
			cost = 1
		}
		if len(set) < ways {
			return cost + rec(i+1, append(append([]uint64{}, set...), e.Line))
		}
		best := ^uint64(0)
		for v := range set {
			ns := append([]uint64{}, set...)
			ns[v] = e.Line
			if m := cost + rec(i+1, ns); m < best {
				best = m
			}
		}
		return best
	}
	return rec(0, nil)
}

// TestDemandMINReplayBoundedByExhaustive certifies the Demand-MIN
// replay against the brute-force forced-fill optimum on tiny random
// streams. The replay is one forced-fill policy, so it can never beat the
// optimum; on prefetch-free streams it degenerates to MIN and must reach
// it. With prefetches it may exceed it: its victim rule only treats
// never-demanded-again lines as free, not lines re-prefetched before
// their next demand.
func TestDemandMINReplayBoundedByExhaustive(t *testing.T) {
	rng := stats.NewRNG(424242)
	for trial := 0; trial < 80; trial++ {
		n := 8 + rng.Intn(6)
		pfOdds := 0.4
		if trial%2 == 0 {
			pfOdds = 0
		}
		ev := randomEvents(rng, n, 1+rng.Intn(4), pfOdds)
		want := exhaustiveDemandOptimalMisses(ev, 2)
		got := Simulate(ev, cfg1set, ModeDemandMIN, false).DemandMisses
		if got < want || (pfOdds == 0 && got != want) {
			t.Fatalf("trial %d: demand-min replay %d misses, optimum %d (trace %v)", trial, got, want, ev)
		}
	}
}

// TestSliceAndLineSources: the adapters honour the source contract,
// including exact length hints, replayability and early stop.
func TestSliceAndLineSources(t *testing.T) {
	ev := demand(1, 2, 3)
	if n, ok := SliceEvents(ev).LenHint(); !ok || n != 3 {
		t.Fatalf("SliceEvents hint %d/%v", n, ok)
	}
	lines := LineEvents([]uint64{5, 6})
	if n, ok := lines.LenHint(); !ok || n != 2 {
		t.Fatalf("LineEvents hint %d/%v", n, ok)
	}
	for pass := 0; pass < 2; pass++ {
		var got []uint64
		if err := lines.Events(func(e Event) bool {
			if e.Prefetch {
				t.Fatal("LineEvents must be demand-only")
			}
			got = append(got, e.Line)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []uint64{5, 6}) {
			t.Fatalf("pass %d: %v", pass, got)
		}
	}
	calls := 0
	stop := func(Event) bool { calls++; return false }
	if SliceEvents(ev).Events(stop) != nil || lines.Events(stop) != nil || calls != 2 {
		t.Fatalf("a pass whose yield returns false went on: %d calls over two sources", calls)
	}
}
