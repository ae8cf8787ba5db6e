// Package opt implements the offline "ideal" replacement policies the
// paper uses both as limit studies and as the reference that Ripple's
// eviction analysis mimics: Belady's MIN and the revised Demand-MIN of
// Harmony (Jain & Lin, ISCA'18), evaluated with the standard two-pass
// methodology (next-use indexing, then a policy replay).
//
// The exact engine streams both passes over a replayable EventSource
// (SimulateSource / BuildOracleSource), so no caller has to materialize
// the access stream; the slice APIs (Simulate, BuildOracle) are thin
// SliceEvents wrappers kept for tests and small inputs.
//
// The package also provides the next-use Oracle used to score replacement
// accuracy: a victim choice is "optimal" iff no other line in the set is
// re-used later than it.
package opt

import (
	"errors"

	"ripple/internal/cache"
)

// Event is one access in a recorded line-access stream. Demand events come
// from committed basic blocks; prefetch events from the simulated
// prefetcher.
type Event struct {
	Line     uint64
	Prefetch bool
}

// Mode selects the oracle policy variant.
type Mode int

const (
	// ModeMIN is Belady's MIN treating every event (demand or prefetch)
	// as a use: the prefetch-unaware ideal.
	ModeMIN Mode = iota
	// ModeDemandMIN is the paper's revised Demand-MIN: dead lines first,
	// then lines whose next event is a prefetch (farthest prefetch first,
	// since the prefetcher can always re-fetch them), then the line whose
	// next demand is farthest.
	ModeDemandMIN
	// ModePolluteEvict isolates Observation #1 of Sec. II-C: an LRU cache
	// that only deviates from LRU to evict inaccurately prefetched lines
	// (prefetched, never used again) early.
	ModePolluteEvict
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeMIN:
		return "min"
	case ModeDemandMIN:
		return "demand-min"
	case ModePolluteEvict:
		return "pollute-evict"
	default:
		return "unknown"
	}
}

// Eviction records one oracle eviction: the victim line, the stream index
// of its last use before eviction, and the stream index of the access whose
// fill displaced it. Ripple's eviction-window analysis consumes these.
type Eviction struct {
	Line    uint64
	LastUse int32
	At      int32
}

// Result summarizes one oracle replay.
type Result struct {
	Mode           Mode
	DemandAccesses uint64
	DemandMisses   uint64
	PrefetchFills  uint64
	Evictions      uint64
	// DeadPrefetchEvictions counts evictions of lines that were prefetched
	// and never demand-referenced (pollution the oracle removed early).
	DeadPrefetchEvictions uint64
	// EvictionLog is populated only when requested.
	EvictionLog []Eviction
}

// MPKI returns demand misses per kilo-instruction for a given instruction
// count.
func (r Result) MPKI(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(r.DemandMisses) / float64(instrs) * 1000
}

const never = int32(-1)

// entry is one resident line in the oracle cache model.
type entry struct {
	line  uint64
	last  int32 // stream index of most recent access
	stamp uint64
	dead  bool // prefetched and never demand-referenced so far
}

// ErrNotReplayable reports a source whose second pass yielded a different
// event count than the first — a violation of the EventSource contract the
// two-pass engine cannot survive, since next-use indexes from pass one
// would mis-align with the replay.
var ErrNotReplayable = errors.New("opt: source yielded a different event count on replay")

// nextIndex is the pass-one product: for every stream position, the
// position of the next event touching the same line (any kind) and of the
// next demand event on that line; never (-1) when there is none. The two
// share one array when the stream holds no prefetch event. Neither is
// written after pass one.
type nextIndex struct {
	nextAny    []int32
	nextDemand []int32
}

// Simulate replays the oracle policy over a materialized event stream. It
// is a thin wrapper over SimulateSource; it panics on the streaming error
// paths, which a well-formed in-memory slice cannot reach (a slice long
// enough to overflow int32 positions would already be >32 GiB).
func Simulate(events []Event, cfg cache.Config, mode Mode, logEvictions bool) Result {
	res, err := SimulateSource(SliceEvents(events), cfg, mode, logEvictions)
	if err != nil {
		panic("opt: Simulate: " + err.Error())
	}
	return res
}

// SimulateSource replays the oracle policy over two passes of a replayable
// event source against the given cache geometry: pass one builds the
// next-use indexes, pass two replays the policy. Peak memory is the
// index, 4 bytes/event for a demand-only stream and 9 with prefetches
// (plus the model), never the events themselves. Set
// logEvictions to collect the eviction log that Ripple's analysis needs
// (costs memory proportional to evictions).
func SimulateSource(src EventSource, cfg cache.Config, mode Mode, logEvictions bool) (Result, error) {
	idx, err := buildNextIndexesSource(src)
	if err != nil {
		return Result{}, err
	}
	return replayOracle(src, cfg, mode, logEvictions, idx, nil)
}

// SimulateSourceModes replays several oracle modes over one source,
// sharing the pass-one index across all of them (1 + len(modes) passes
// total instead of 2×len(modes)). Results are returned in mode order.
func SimulateSourceModes(src EventSource, cfg cache.Config, modes []Mode, logEvictions bool) ([]Result, error) {
	idx, err := buildNextIndexesSource(src)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(modes))
	for i, m := range modes {
		r, err := replayOracle(src, cfg, m, logEvictions, idx, nil)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// replayOracle is the shared pass-two engine. The onAccess hook, when
// non-nil, observes every event with its stream position and hit/miss
// outcome (BuildOracleSource uses it to mark per-access ideal outcomes).
func replayOracle(src EventSource, cfg cache.Config, mode Mode, logEvictions bool, idx nextIndex, onAccess func(ev Event, i int32, miss bool)) (Result, error) {
	nsets := cfg.Sets()
	setMask := uint64(nsets - 1)
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, 0, cfg.Ways)
	}
	res := Result{Mode: mode}
	var clock uint64
	n := len(idx.nextAny)

	i := 0
	err := src.Events(func(ev Event) bool {
		if i == n {
			i++ // more events than pass one indexed: i != n below
			return false
		}
		if !ev.Prefetch {
			res.DemandAccesses++
		}
		s := sets[ev.Line&setMask]
		for w := range s {
			if s[w].line == ev.Line {
				clock++
				s[w].last = int32(i)
				s[w].stamp = clock
				if !ev.Prefetch {
					s[w].dead = false
				}
				if onAccess != nil {
					onAccess(ev, int32(i), false)
				}
				i++
				return true
			}
		}
		if onAccess != nil {
			onAccess(ev, int32(i), true)
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
			i++
			return true
		}
		w := victim(s, mode, idx.nextAny, idx.nextDemand)
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
		i++
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if i != n {
		return Result{}, ErrNotReplayable
	}
	return res, nil
}

// victim selects the way to replace under the oracle mode. All ways are
// occupied when called.
func victim(s []entry, mode Mode, nextAny, nextDemand []int32) int {
	switch mode {
	case ModeMIN:
		// Farthest next event; dead lines (no next event) win immediately.
		best, bestNext := 0, int32(0)
		for w := range s {
			n := nextAny[s[w].last]
			if n == never {
				return w
			}
			if n > bestNext {
				best, bestNext = w, n
			}
		}
		return best

	case ModeDemandMIN:
		// 1) never demand-referenced again: among those, farthest next
		//    prefetch (a dead line with no events at all is farthest).
		// 2) otherwise farthest next demand.
		bestPF, bestPFNext := -1, int32(-2)
		bestD, bestDNext := 0, int32(0)
		for w := range s {
			nd := nextDemand[s[w].last]
			if nd == never {
				// Next event (if any) is a prefetch: evicting is free.
				na := nextAny[s[w].last]
				if na == never {
					return w // completely dead
				}
				if na > bestPFNext {
					bestPF, bestPFNext = w, na
				}
				continue
			}
			if nd > bestDNext {
				bestD, bestDNext = w, nd
			}
		}
		if bestPF >= 0 {
			return bestPF
		}
		return bestD

	case ModePolluteEvict:
		// LRU, except inaccurately prefetched lines (never used again) are
		// evicted first.
		bestLRU, bestStamp := 0, ^uint64(0)
		for w := range s {
			if s[w].dead && nextDemand[s[w].last] == never {
				return w
			}
			if s[w].stamp < bestStamp {
				bestLRU, bestStamp = w, s[w].stamp
			}
		}
		return bestLRU

	default:
		panic("opt: unknown mode")
	}
}

// buildNextIndexesSource computes the next-use indexes in one forward
// pass: when a line reappears at position i, its previous position's
// next-any link is patched to i. Next-demand links are then derived by a
// backward sweep over the completed next-any chain — the next demand on a
// line is its next access if that access is a demand, else that access's
// own next demand. This yields arrays identical to the slice-era backward
// builder (buildNextIndexes) without needing the events in memory. A
// stream with no prefetch event needs no sweep: every next access is a
// demand, so nextDemand is nextAny, and the per-event demand flags are
// kept only from the first prefetch on.
func buildNextIndexesSource(src EventSource) (nextIndex, error) {
	// Clamp the hint: on a trace-backed source it descends from an
	// unvalidated stream header, which must not drive the allocation.
	capHint := 1 << 10
	if n, ok := LenHint(src); ok && n > 0 {
		capHint = min(n, 1<<20)
	}
	nextAny := make([]int32, 0, capHint)
	var demand []bool // nil while every event so far is a demand
	// The map grows with the lines the stream touches, far fewer than
	// its events: 3,430 lines over a 500k-block kafka profile's 609k.
	lastAny := make(map[uint64]int32)

	tooLong := false
	err := src.Events(func(ev Event) bool {
		n := len(nextAny)
		if n >= maxStreamEvents {
			tooLong = true
			return false
		}
		if j, ok := lastAny[ev.Line]; ok {
			nextAny[j] = int32(n)
		}
		lastAny[ev.Line] = int32(n)
		nextAny = append(nextAny, never)
		if ev.Prefetch && demand == nil {
			demand = make([]bool, n, cap(nextAny))
			for i := range demand {
				demand[i] = true
			}
		}
		if demand != nil {
			demand = append(demand, !ev.Prefetch)
		}
		return true
	})
	if err != nil {
		return nextIndex{}, err
	}
	if tooLong {
		return nextIndex{}, ErrStreamTooLong
	}
	if demand == nil {
		return nextIndex{nextAny: nextAny, nextDemand: nextAny}, nil
	}

	n := len(nextAny)
	nextDemand := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		j := nextAny[i]
		switch {
		case j == never:
			nextDemand[i] = never
		case demand[j]:
			nextDemand[i] = j
		default:
			nextDemand[i] = nextDemand[j]
		}
	}
	return nextIndex{nextAny: nextAny, nextDemand: nextDemand}, nil
}

// buildNextIndexes is the slice-era backward builder, kept as the
// reference implementation the streaming builder is tested against.
func buildNextIndexes(events []Event) (nextAny, nextDemand []int32) {
	n := len(events)
	nextAny = make([]int32, n)
	nextDemand = make([]int32, n)
	lastAny := make(map[uint64]int32, 1<<14)
	lastDemand := make(map[uint64]int32, 1<<14)
	for i := n - 1; i >= 0; i-- {
		line := events[i].Line
		if j, ok := lastAny[line]; ok {
			nextAny[i] = j
		} else {
			nextAny[i] = never
		}
		if j, ok := lastDemand[line]; ok {
			nextDemand[i] = j
		} else {
			nextDemand[i] = never
		}
		lastAny[line] = int32(i)
		if !events[i].Prefetch {
			lastDemand[line] = int32(i)
		}
	}
	return nextAny, nextDemand
}
