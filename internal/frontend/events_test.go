package frontend

import (
	"errors"
	"reflect"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/opt"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

// drainEvents pulls one full pass out of an event source, failing the
// test on a stream error.
func drainEvents(t *testing.T, src opt.EventSource) []opt.Event {
	t.Helper()
	seq := src.Open()
	var out []opt.Event
	for {
		e, ok := seq.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// opaque hides every optional capability of a block source (LenHint in
// particular), forcing the buffered warmup path in AccessEvents.
func opaque(src blockseq.Source) blockseq.Source {
	return blockseq.Func(func() blockseq.Seq { return src.Open() })
}

func TestDemandEventsMatchesDemandLines(t *testing.T) {
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
	lines, _, err := DemandLines(app.Prog, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []blockseq.Source{tr, opaque(tr)} {
		es := DemandEvents(app.Prog, src)
		for pass := 0; pass < 2; pass++ {
			got := drainEvents(t, es)
			if len(got) != len(lines) {
				t.Fatalf("pass %d: %d events, DemandLines has %d", pass, len(got), len(lines))
			}
			for i, e := range got {
				if e.Prefetch {
					t.Fatalf("demand source yielded a prefetch event at %d", i)
				}
				if e.Line != lines[i] {
					t.Fatalf("pass %d: event %d line %#x, want %#x", pass, i, e.Line, lines[i])
				}
			}
		}
	}
	if n, ok := opt.LenHint(DemandEvents(app.Prog, tr)); !ok || n < len(lines) {
		t.Fatalf("LenHint = %d,%v; want a capacity >= %d", n, ok, len(lines))
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

func TestAccessEventsStop(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	tr := trace(0, 1, 2, 3, 4, 0, 1, 2, 3, 4)
	es := AccessEvents(p, prog, tr, func() (Options, error) {
		return Options{Policy: replacement.NewLRU()}, nil
	})
	seq := es.Open()
	if _, ok := seq.Next(); !ok {
		t.Fatal("empty stream")
	}
	st, ok := seq.(opt.EventStopper)
	if !ok {
		t.Fatal("access sequence does not implement opt.EventStopper")
	}
	st.Stop()
	st.Stop() // idempotent
	// An abandoned pass must not wedge later ones.
	if n := len(drainEvents(t, es)); n == 0 {
		t.Fatal("fresh pass after Stop yielded nothing")
	}
}

func TestAccessEventsPropagatesOptionsError(t *testing.T) {
	p := smallParams()
	prog := loopProgram(t)
	boom := errors.New("no options for you")
	es := AccessEvents(p, prog, trace(0, 1), func() (Options, error) {
		return Options{}, boom
	})
	seq := es.Open()
	if _, ok := seq.Next(); ok {
		t.Fatal("event yielded despite options error")
	}
	if err := seq.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

func TestAccessEventsPropagatesRunError(t *testing.T) {
	p := smallParams()
	p.L1I.SizeBytes = 100 // invalid geometry
	prog := loopProgram(t)
	es := AccessEvents(p, prog, trace(0, 1), func() (Options, error) {
		return Options{Policy: replacement.NewLRU()}, nil
	})
	seq := es.Open()
	for {
		if _, ok := seq.Next(); !ok {
			break
		}
	}
	if seq.Err() == nil {
		t.Fatal("bad geometry did not surface through Err")
	}
}
