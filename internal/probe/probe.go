// Package probe is a CacheQuery-style black-box interrogation harness
// for replacement policies ("Learning Replacement Policies from Hardware
// Caches", PAPERS.md). It drives any cache.Policy through synthesized
// membership-query schedules — fill/hit/evict/Demote sequences over a
// small set-associative geometry, the software analogue of eviction-set
// probing — and observes only what a prober could observe on hardware:
// which accesses hit, which way each fill landed in, and which resident
// line every replacement decision evicted.
//
// Three consumers build on the transcript machinery:
//
//   - Learn infers a compact age-vector model of a policy (insertion
//     position, hit promotion, demote behavior, a canonical fingerprint)
//     from a fixed probe battery.
//   - Diff replays thousands of seeded random schedules through an
//     implementation and an independently written reference
//     specification and reports the first observable divergence — the
//     differential conformance check behind probetest.TestPolicyConformance.
//   - FindWitness searches seeded schedules for a shortest-prefix
//     sequence whose transcripts separate two subjects, powering the
//     pairwise distinguishability matrix over the policy zoo and its
//     hint-injected (invalidate / demote) variants.
//
// Every schedule is replayed through a real cache.Cache, so the probe
// protocol is valid by construction: ways are filled before they are hit
// or evicted, Victim is only consulted on a full set, and OnEvict/OnFill
// pairing matches production exactly.
package probe

import (
	"fmt"
	"math/bits"

	"ripple/internal/cache"
)

// HintMode selects how OpHint schedule entries are executed, mirroring
// the frontend's invalidate-vs-demote hint variants.
type HintMode int

const (
	// HintNone ignores hint ops: the base (hint-free) configuration.
	HintNone HintMode = iota
	// HintInvalidate executes hint ops as cache.Invalidate.
	HintInvalidate
	// HintDemote executes hint ops as cache.Demote.
	HintDemote
)

// String implements fmt.Stringer.
func (m HintMode) String() string {
	switch m {
	case HintNone:
		return "none"
	case HintInvalidate:
		return "invalidate"
	case HintDemote:
		return "demote"
	}
	return fmt.Sprintf("HintMode(%d)", int(m))
}

// ParseHintMode parses the CLI spelling of a hint mode.
func ParseHintMode(s string) (HintMode, error) {
	switch s {
	case "none", "":
		return HintNone, nil
	case "invalidate":
		return HintInvalidate, nil
	case "demote":
		return HintDemote, nil
	}
	return 0, fmt.Errorf("probe: unknown hint mode %q (none, invalidate, demote)", s)
}

// OpKind is one probe operation type.
type OpKind uint8

const (
	// OpAccess is a demand access: hit, or miss + fill (possibly evicting).
	OpAccess OpKind = iota
	// OpPrefetch is a prefetcher-initiated access.
	OpPrefetch
	// OpHint is a Ripple hint on the line, executed per Config.Hints.
	OpHint
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAccess:
		return "access"
	case OpPrefetch:
		return "prefetch"
	case OpHint:
		return "hint"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one schedule entry: an operation on a cache line address.
type Op struct {
	Kind OpKind
	Line uint64
}

// Config sizes the probed geometry and fixes the hint execution mode.
// Sets must be a power of two.
type Config struct {
	Sets, Ways int
	Hints      HintMode
}

// Validate checks the geometry is probe-able.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("probe: sets %d is not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("probe: non-positive ways %d", c.Ways)
	}
	return nil
}

// setBits returns log2(sets).
func (c Config) setBits() int { return bits.TrailingZeros(uint(c.Sets)) }

// Line builds the pool line address for (set, tag). Tags occupy the bits
// above the set index, so the probe signature (the tag, see sigOf) is
// invariant under set relabeling — the property the set-permutation
// metamorphic test relies on.
func (c Config) Line(set, tag int) uint64 {
	return uint64(tag)<<c.setBits() | uint64(set)
}

// sigOf derives the AccessInfo signature for a probed line: the tag,
// deliberately independent of the set bits.
func (c Config) sigOf(line uint64) uint64 { return line >> c.setBits() }

// Outcome is the observable result of one op. Hint ops record the zero
// outcome regardless of whether they acted — a hint instruction has no
// architecturally visible result, so distinguishing a hint-injected
// configuration from its base must (and does) rest on downstream hit /
// victim divergence alone.
type Outcome struct {
	// Hit reports whether an access op hit.
	Hit bool
	// Way is the way the line occupies after an access op, or -1.
	Way int8
	// Evicted is the line displaced by this op, or -1.
	Evicted int64
}

var hintOutcome = Outcome{Hit: false, Way: -1, Evicted: -1}

// Run replays ops through a fresh cache.Cache wired to p and returns the
// per-op observable transcript plus the cache's own event statistics.
// The policy is Reset by cache construction; Run never mutates ops.
func Run(p cache.Policy, cfg Config, ops []Op) ([]Outcome, cache.Stats) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c, err := cache.New(cache.Config{
		SizeBytes: cfg.Sets * cfg.Ways * 64,
		Ways:      cfg.Ways,
		LineBytes: 64,
	}, p)
	if err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
	out := make([]Outcome, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAccess, OpPrefetch:
			res := c.Access(cache.AccessInfo{
				Line:     op.Line,
				Sig:      cfg.sigOf(op.Line),
				Prefetch: op.Kind == OpPrefetch,
			})
			o := Outcome{Hit: res.Hit, Way: int8(res.Way), Evicted: -1}
			if res.EvictedValid {
				o.Evicted = int64(res.Evicted)
			}
			out[i] = o
		case OpHint:
			switch cfg.Hints {
			case HintInvalidate:
				c.Invalidate(op.Line)
			case HintDemote:
				c.Demote(op.Line)
			}
			out[i] = hintOutcome
		default:
			panic(fmt.Sprintf("probe: unknown op kind %d", op.Kind))
		}
	}
	return out, c.Stats
}

// FirstDivergence returns the index of the first differing outcome, or
// -1 when the transcripts are identical. Transcripts of different
// lengths diverge at the shorter length.
func FirstDivergence(a, b []Outcome) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// CheckStats validates the cache-event accounting invariants that every
// policy-driven run must preserve; the fuzz target asserts them on
// arbitrary schedules. In particular Fills must decompose exactly into
// demand misses plus prefetch fills, and the replacement-coverage
// numerator (HintFreedFills) can never exceed its denominator.
func CheckStats(s cache.Stats) error {
	checks := []struct {
		ok   bool
		desc string
	}{
		{s.Accesses == s.DemandAccesses+s.PrefetchProbes, "Accesses == DemandAccesses + PrefetchProbes"},
		{s.Fills == s.DemandMisses+s.PrefetchFills, "Fills == DemandMisses + PrefetchFills"},
		{s.DemandMisses <= s.DemandAccesses, "DemandMisses <= DemandAccesses"},
		{s.PrefetchFills <= s.PrefetchProbes, "PrefetchFills <= PrefetchProbes"},
		{s.PrefetchUseful <= s.PrefetchFills, "PrefetchUseful <= PrefetchFills"},
		{s.PrefetchUnusedEvicted <= s.PrefetchFills, "PrefetchUnusedEvicted <= PrefetchFills"},
		{s.Evictions <= s.Fills, "Evictions <= Fills"},
		{s.Evictions <= s.ReplacementDecisions, "Evictions <= ReplacementDecisions"},
		{s.HintFreedFills <= s.ReplacementDecisions, "HintFreedFills <= ReplacementDecisions"},
		{s.ReplacementDecisions <= s.Evictions+s.HintFreedFills, "ReplacementDecisions <= Evictions + HintFreedFills"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("probe: stats invariant violated: %s (%+v)", c.desc, s)
		}
	}
	return nil
}

// Registration describes one zoo policy to the probe harness: how to
// build the production-configured implementation, its independent
// reference specification, an optional observability-tweaked probe
// variant (e.g. Hawkeye with a reachable aversion threshold so the
// learner can see the averse path), and the policy's set-symmetry
// classes for the permutation metamorphic test. Policies registered
// here are covered automatically by probetest.TestPolicyConformance,
// the FuzzPolicyEvents target, and the distinguishability matrix.
type Registration struct {
	Name string
	// New builds the production-configured policy (the catalog factory).
	New func() cache.Policy
	// Ref builds the independent reference specification matching New.
	Ref func() cache.Policy
	// ProbeNew builds the probe-configured subject; nil means New.
	ProbeNew func() cache.Policy
	// ProbeRef builds the reference matching ProbeNew; nil means Ref.
	ProbeRef func() cache.Policy
	// SetClass partitions set indices into symmetry classes: relabeling
	// sets within a class must not change behavior. nil means fully
	// set-symmetric (a single class).
	SetClass func(set int) int
}

// Probe returns the probe-configured subject factory.
func (r Registration) Probe() func() cache.Policy {
	if r.ProbeNew != nil {
		return r.ProbeNew
	}
	return r.New
}

// ProbeReference returns the reference factory matching Probe.
func (r Registration) ProbeReference() func() cache.Policy {
	if r.ProbeRef != nil {
		return r.ProbeRef
	}
	return r.Ref
}

// Demotes reports whether the registered policy supports demote hints.
func (r Registration) Demotes() bool {
	_, ok := r.New().(cache.Demoter)
	return ok
}
