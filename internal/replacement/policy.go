// Package replacement implements every hardware cache replacement policy
// studied by the paper: LRU, Random, SRRIP, DRRIP, GHRP (the only prior
// I-cache-specific policy, in both its published and confidence-fixed
// forms), and Hawkeye/Harmony (the state-of-the-art learning D-cache
// policies the paper shows fail on I-caches), plus two signature-predicted
// RRIP baselines beyond the paper: SHiP and TRRIP. SRRIP, DRRIP, SHiP and
// TRRIP share one RRIP core and differ in the RRPV a fill inserts at. Each
// policy also accounts for its on-chip metadata storage, reproducing
// Table I.
//
// Policies satisfy the cache.Policy interface; every policy but Random
// also satisfies cache.Demoter, so Ripple's "reduce LRU priority" hint
// variant can be evaluated under it.
package replacement

import (
	"fmt"

	"ripple/internal/cache"
)

// Overheader is implemented by policies that can report their metadata
// storage for a given geometry (Table I of the paper).
type Overheader interface {
	// OverheadBytes returns the metadata bytes required for a sets x ways
	// cache.
	OverheadBytes(sets, ways int) float64
	// OverheadNote describes what the storage holds.
	OverheadNote() string
}

// catalog lists the policies in Names' order. Each build returns a fresh
// instance: simulations never share policy state.
var catalog = []struct {
	name  string
	build func() cache.Policy
}{
	{"lru", func() cache.Policy { return NewLRU() }},
	{"random", func() cache.Policy { return NewRandom(0x12345) }},
	{"srrip", func() cache.Policy { return NewSRRIP() }},
	{"drrip", func() cache.Policy { return NewDRRIP() }},
	{"ghrp", func() cache.Policy { return NewGHRP(true) }},
	{"ghrp-orig", func() cache.Policy { return NewGHRP(false) }},
	{"hawkeye", func() cache.Policy { return NewHawkeye(false) }},
	{"harmony", func() cache.Policy { return NewHawkeye(true) }},
	{"ship", func() cache.Policy { return NewSHiP() }},
	{"trrip", func() cache.Policy { return NewTRRIP() }},
}

// New returns a fresh policy by name, or an error listing valid names.
func New(name string) (cache.Policy, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("replacement: unknown policy %q (have %v)", name, Names())
}

// Names lists the available policy names in a stable order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// base provides the geometry bookkeeping shared by all policies.
type base struct {
	sets, ways int
}

func (b *base) reset(sets, ways int) {
	b.sets, b.ways = sets, ways
}

func (b *base) idx(set, way int) int { return set*b.ways + way }

// mix64 is a cheap 64-bit finalizer used for signature and table hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
