package frontend

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/cache"
	"ripple/internal/fault"
	"ripple/internal/isa"
	"ripple/internal/prefetch"
	"ripple/internal/program"
	"ripple/internal/replacement"
	"ripple/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/reuse.golden from the current simulator")

const reuseGolden = "testdata/reuse.golden"

// reuseCase is one configuration of the reuse matrix. opts builds fresh
// policy and prefetcher state for every run.
type reuseCase struct {
	name   string
	p      Params
	prog   *program.Program
	src    blockseq.Source
	opts   func() Options
	golden string
}

var (
	reuseAppsOnce sync.Once
	reuseApps     map[string]*workload.App
	reuseAppsErr  error
)

// catalogApps builds kafka and drupal once per test binary.
func catalogApps(t testing.TB) map[string]*workload.App {
	t.Helper()
	reuseAppsOnce.Do(func() {
		reuseApps = map[string]*workload.App{}
		for _, name := range []string{"kafka", "drupal"} {
			m, ok := workload.ByName(name)
			if !ok {
				reuseAppsErr = fmt.Errorf("no catalog workload %q", name)
				return
			}
			if reuseApps[name], reuseAppsErr = workload.Build(m); reuseAppsErr != nil {
				return
			}
		}
	})
	if reuseAppsErr != nil {
		t.Fatal(reuseAppsErr)
	}
	return reuseApps
}

// handPlan injects, layout-neutrally, two victims into every fifth
// block: the first lines of two blocks elsewhere in the program.
func handPlan(prog *program.Program) *program.Program {
	n := len(prog.Blocks)
	plan := map[program.BlockID][]uint64{}
	for i := 0; i < n; i += 5 {
		plan[program.BlockID(i)] = []uint64{
			prog.Blocks[(i*7919+13)%n].FirstLine(),
			prog.Blocks[(i+1)%n].FirstLine(),
		}
	}
	return prog.WithInjectionsPreservingLayout(plan)
}

// strayPrefetcher prefetches each next block's first line, plus one line
// past the end of the text and one below its start, so a run exercises
// the in-flight lines kept outside the per-line tables.
type strayPrefetcher struct {
	prog     *program.Program
	first    uint64
	lines, n uint64
	panicAt  uint64
}

func newStray(prog *program.Program) *strayPrefetcher {
	first := isa.LineOf(prog.Base)
	return &strayPrefetcher{prog: prog, first: first, lines: isa.LineOf(prog.Base+prog.TotalBytes()) - first + 1}
}

func (p *strayPrefetcher) Name() string { return "stray" }

func (p *strayPrefetcher) OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64 {
	p.n++
	if p.n == p.panicAt {
		panic("stray prefetcher: injected panic")
	}
	return append(dst, p.prog.Block(next).FirstLine(), p.first+p.lines+p.n%97, p.first-1-p.n%89)
}

// reuseCases is the matrix: kafka and drupal under every pairing of a
// catalog policy with a catalog prefetcher, plus a warmup, accuracy
// scoring, invalidate and demote hints, an L2/L3 smaller than the text,
// and a prefetcher that issues lines outside the text.
func reuseCases(t testing.TB) []reuseCase {
	t.Helper()
	const blocks = 6000
	apps := catalogApps(t)
	small := DefaultParams()
	small.L2 = cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}
	small.L3 = cache.Config{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64}

	var cases []reuseCase
	for _, name := range []string{"kafka", "drupal"} {
		app := apps[name]
		src := blockseq.SliceSource(app.Trace(0, blocks))
		hinted := handPlan(app.Prog)
		add := func(label string, p Params, prog *program.Program, pol, pf string, tweak func(*Options)) {
			cases = append(cases, reuseCase{
				name: name + "/" + label, p: p, prog: prog, src: src,
				opts: func() Options {
					o := Options{}
					var err error
					if o.Policy, err = replacement.New(pol); err != nil {
						panic(err)
					}
					if pf == "stray" {
						o.Prefetcher = newStray(prog)
					} else if o.Prefetcher, err = prefetch.New(pf, prog); err != nil {
						panic(err)
					}
					if tweak != nil {
						tweak(&o)
					}
					return o
				},
			})
		}
		for _, pol := range replacement.Names() {
			for _, pf := range prefetch.Names() {
				add(pol+"+"+pf, DefaultParams(), app.Prog, pol, pf, nil)
			}
		}
		add("warmup/lru+nlp", DefaultParams(), app.Prog, "lru", "nlp", func(o *Options) { o.WarmupBlocks = 2000 })
		add("warmup/random+tifs", DefaultParams(), hinted, "random", "tifs", func(o *Options) { o.WarmupBlocks = 2000 })
		add("accuracy/ghrp+fdip", DefaultParams(), hinted, "ghrp", "fdip", func(o *Options) { o.MeasureAccuracy = true })
		add("invalidate/lru+fdip", DefaultParams(), hinted, "lru", "fdip", nil)
		add("accuracy/ship+fdip", DefaultParams(), hinted, "ship", "fdip", func(o *Options) { o.MeasureAccuracy = true })
		add("demote/lru+nlp", DefaultParams(), hinted, "lru", "nlp", func(o *Options) { o.Hints = HintDemote })
		add("demote/srrip+nlp", DefaultParams(), hinted, "srrip", "nlp", func(o *Options) { o.Hints = HintDemote })
		add("demote/trrip+fdip", DefaultParams(), hinted, "trrip", "fdip", func(o *Options) { o.Hints = HintDemote })
		add("demote+accuracy/lru+fdip", DefaultParams(), hinted, "lru", "fdip", func(o *Options) {
			o.Hints, o.MeasureAccuracy = HintDemote, true
		})
		add("small-l2l3/lru+fdip", small, app.Prog, "lru", "fdip", nil)
		add("small-l2l3/random+stray", small, hinted, "random", "stray", nil)
		add("stray/lru", DefaultParams(), app.Prog, "lru", "stray", nil)
		add("stray/ghrp+warmup", DefaultParams(), hinted, "ghrp", "stray", func(o *Options) { o.WarmupBlocks = 1000 })
	}

	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(reuseGolden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, res, _ := strings.Cut(line, " ")
			want[name] = res
		}
	}
	for i := range cases {
		cases[i].golden = want[cases[i].name]
	}
	return cases
}

func (c reuseCase) run() (string, error) {
	r, err := Run(c.p, c.prog, c.src, c.opts())
	return fmt.Sprintf("%+v", r), err
}

func (c reuseCase) check(t *testing.T, how string) {
	t.Helper()
	got, err := c.run()
	if err != nil {
		t.Errorf("%s %s: %v", how, c.name, err)
		return
	}
	if got != c.golden {
		t.Errorf("%s %s:\n got %s\nwant %s", how, c.name, got, c.golden)
	}
}

// TestReuseIsInvisible runs the matrix in order, in an interleaved
// order, from several goroutines at once, and after runs that failed or
// panicked mid-trace, and requires every result to equal the golden
// table, which was recorded with a fresh L2/L3 built and prewarmed for
// every run. Rewrite the table with -update only for an intended change
// of simulated results.
func TestReuseIsInvisible(t *testing.T) {
	cases := reuseCases(t)
	if *update {
		var b strings.Builder
		for _, c := range cases {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s\n", c.name, got)
		}
		if err := os.WriteFile(reuseGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, c := range cases {
		if c.golden == "" {
			t.Fatalf("%s has no golden line", c.name)
		}
	}

	for _, c := range cases {
		c.check(t, "in order")
	}
	// A stride coprime to the matrix size alternates apps, programs and
	// geometries, so consecutive runs rarely share a pair.
	for i := range cases {
		cases[(i*7)%len(cases)].check(t, "interleaved")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				cases[(i+g*len(cases)/4)%len(cases)].check(t, fmt.Sprintf("goroutine %d", g))
			}
		}(g)
	}
	wg.Wait()

	for _, c := range cases {
		failing := c
		failing.src = fault.NewSource(c.src, fault.SourceFaults{AfterNext: 3000})
		if _, err := failing.run(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s over a failing source: err = %v", c.name, err)
		}
		c.check(t, "after a failed run")
	}

	for _, c := range cases {
		if !strings.Contains(c.name, "stray") {
			continue
		}
		panicking := c
		panicking.opts = func() Options {
			o := c.opts()
			o.Prefetcher.(*strayPrefetcher).panicAt = 2500
			return o
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the prefetcher's panic did not reach the caller", c.name)
				}
			}()
			panicking.run()
		}()
		c.check(t, "after a panicked run")
	}
}
