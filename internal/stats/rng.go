// Package stats provides the deterministic pseudo-random number generation,
// sampling distributions, and numeric aggregation helpers shared by the
// workload generator, the simulators, and the experiment harness.
//
// Determinism matters here: every experiment in the paper reproduction must
// produce identical traces for identical seeds, so all randomness flows
// through the explicit RNG type in this package rather than math/rand's
// global state.
package stats

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). The zero value is not usable;
// construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Two generators
// built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state, per the
	// reference implementation, guaranteeing a non-zero state.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent generator from this one. Use it to give
// subsystems (e.g. each synthetic function body) their own stream so that
// adding draws in one place does not perturb every downstream decision.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// WeightedChoice returns an index in [0, len(weights)) chosen with
// probability proportional to weights[i]. Zero or negative weights are
// treated as zero. It panics if all weights are zero or the slice is empty.
func (r *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice with no positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
