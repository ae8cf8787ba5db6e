package frontend

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/opt"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// drainEvents collects one full pass of an event source, failing the
// test on a stream error.
func drainEvents(t *testing.T, src opt.EventSource) []opt.Event {
	t.Helper()
	var out []opt.Event
	if err := src.Events(func(e opt.Event) bool {
		out = append(out, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// opaque hides every optional capability of a block source (LenHint in
// particular), forcing the buffered warmup path in AccessEvents.
func opaque(src blockseq.Source) blockseq.Source {
	return blockseq.Func(func() blockseq.Seq { return src.Open() })
}

// TestDemandEventsMatchesSimulator: DemandEvents yields, line for line,
// the demand stream the simulator itself fetches (a run with no
// prefetcher and no warmup, observed through AccessEvents), on every pass
// and with or without a block-count hint.
func TestDemandEventsMatchesSimulator(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "ev-demand", Seed: 7,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 3,
		BlocksMin: 3, BlocksMax: 6, BlockBytesMin: 16, BlockBytesMax: 96,
		PCond: 0.3, PCall: 0.2, PICall: 0.05, PIJump: 0.02,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 2, IndirectFanout: 2,
		ZipfRequest: 0.9, RequestsPerBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := blockseq.SliceSource(app.Trace(0, 4000))
	want := drainEvents(t, AccessEvents(DefaultParams(), app.Prog, tr, func() (Options, error) {
		return Options{Policy: replacement.NewLRU()}, nil
	}))
	for _, src := range []blockseq.Source{tr, opaque(tr)} {
		es := DemandEvents(app.Prog, src)
		for pass := 0; pass < 2; pass++ {
			got := drainEvents(t, es)
			if len(got) != len(want) {
				t.Fatalf("pass %d: %d events, the simulator fetched %d", pass, len(got), len(want))
			}
			for i, e := range got {
				if e != want[i] {
					t.Fatalf("pass %d: event %d = %+v, the simulator fetched %+v", pass, i, e, want[i])
				}
			}
		}
	}
	if n, ok := opt.LenHint(DemandEvents(app.Prog, tr)); !ok || n < len(want) {
		t.Fatalf("LenHint = %d,%v; want a capacity >= %d", n, ok, len(want))
	}
	if _, ok := opt.LenHint(DemandEvents(app.Prog, opaque(tr))); ok {
		t.Fatal("opaque source leaked a LenHint")
	}
}

// TestAccessEventsCountsMatchAccesses: across warmup boundaries, a pass
// carries exactly the post-warmup demand accesses and prefetch probes
// the run's L1I counted, and every pass replays the identical stream
// (replayability is what the two-pass oracle engine relies on).
func TestAccessEventsCountsMatchAccesses(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 3, 4, 0, 1, 2, 3, 4)
	for _, warm := range []int{0, 4, len(tr), len(tr) + 5} {
		newOpts := func() (Options, error) {
			return Options{
				Policy:       replacement.NewLRU(),
				Prefetcher:   prefetchNLP(prog),
				WarmupBlocks: warm,
			}, nil
		}
		opts, _ := newOpts()
		res, err := Run(p, prog, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm == 0 && res.L1I.PrefetchProbes == 0 {
			t.Fatal("test is vacuous: the prefetcher issued nothing")
		}
		for _, src := range []blockseq.Source{tr, opaque(tr)} {
			es := AccessEvents(p, prog, src, newOpts)
			first := drainEvents(t, es)
			var demand, prefetches uint64
			for _, e := range first {
				if e.Prefetch {
					prefetches++
				} else {
					demand++
				}
			}
			if demand != res.L1I.DemandAccesses || prefetches != res.L1I.PrefetchProbes {
				t.Fatalf("warm=%d: %d demand + %d prefetch events, L1I counted %d + %d",
					warm, demand, prefetches, res.L1I.DemandAccesses, res.L1I.PrefetchProbes)
			}
			if again := drainEvents(t, es); !reflect.DeepEqual(first, again) {
				t.Fatalf("warm=%d: second pass diverged:\n got %v\nwant %v", warm, again, first)
			}
		}
	}
}

// TestAccessEventsFeedsOracle: the streaming Demand-MIN engine over
// AccessEvents matches the slice engine over the same events, drained.
func TestAccessEventsFeedsOracle(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 2, 4)
	newOpts := func() (Options, error) {
		return Options{Policy: replacement.NewLRU(), Prefetcher: prefetchNLP(prog)}, nil
	}
	events := AccessEvents(p, prog, tr, newOpts)
	want := opt.Simulate(drainEvents(t, events), p.L1I, opt.ModeDemandMIN, false)
	got, err := opt.SimulateSource(events, p.L1I, opt.ModeDemandMIN, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming oracle over AccessEvents = %+v, slice path = %+v", got, want)
	}
}

// TestAccessEventsStopsEarly: a pass whose yield returns false ends
// after that one call, cleanly and on the caller's goroutine, and leaves
// later passes whole.
func TestAccessEventsStopsEarly(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 3, 4, 0, 1, 2, 3, 4)
	newOpts := func() (Options, error) {
		return Options{Policy: replacement.NewLRU(), Prefetcher: prefetchNLP(prog)}, nil
	}
	opts, _ := newOpts()
	res, err := Run(p, prog, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	es := AccessEvents(p, prog, tr, newOpts)
	goroutines := runtime.NumGoroutine()
	calls := 0
	if err := es.Events(func(opt.Event) bool {
		calls++
		return false
	}); err != nil {
		t.Fatalf("stopped pass returned %v", err)
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after returning false on the first event", calls)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("goroutines: %d before the pass, %d after", goroutines, n)
	}
	if n := uint64(len(drainEvents(t, es))); n != res.L1I.DemandAccesses+res.L1I.PrefetchProbes {
		t.Fatalf("fresh pass after an early stop yielded %d events, the run counted %d",
			n, res.L1I.DemandAccesses+res.L1I.PrefetchProbes)
	}
}

func TestAccessEventsPropagatesOptionsError(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	boom := errors.New("no options for you")
	es := AccessEvents(p, prog, trace(0, 1), func() (Options, error) {
		return Options{}, boom
	})
	calls := 0
	err := es.Events(func(opt.Event) bool {
		calls++
		return true
	})
	if calls != 0 {
		t.Fatal("event yielded despite options error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Events = %v, want %v", err, boom)
	}
}

func TestAccessEventsPropagatesRunError(t *testing.T) {
	p := smallParams()
	p.L1I.SizeBytes = 100 // invalid geometry
	prog := loopProgram(t)
	es := AccessEvents(p, prog, trace(0, 1), func() (Options, error) {
		return Options{Policy: replacement.NewLRU()}, nil
	})
	if err := es.Events(func(opt.Event) bool { return true }); err == nil {
		t.Fatal("bad geometry did not surface through Events")
	}
}
