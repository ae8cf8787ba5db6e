// Package cache implements the set-associative caches of the simulated
// instruction hierarchy. The replacement policy is pluggable (see Policy);
// the cache itself only manages tags, valid/prefetch bits, and the
// bookkeeping Ripple needs: explicit invalidation (the proposed
// `invalidate` instruction), LRU demotion (the Sec. IV variant), and
// attribution of fills to hint-freed ways (replacement coverage). A cache
// can also journal its changes and roll back to a mark (Mark, Rollback),
// which is how the frontend reuses one prewarmed outer hierarchy, or keep
// a line→way index over a line range (Index, TryHit), which is how the
// frontend's L1I finds its hits without scanning tags.
package cache

import (
	"fmt"
	"math"
)

// AccessInfo carries the metadata replacement policies may condition on.
type AccessInfo struct {
	// Line is the cache-line address (byte address >> 6).
	Line uint64
	// Sig is a signature for predictor-based policies; for instruction
	// lines this is derived from the accessed line itself (the I-cache
	// analogue of the load PC used by D-cache policies).
	Sig uint64
	// Prefetch marks prefetcher-initiated accesses.
	Prefetch bool
}

// Policy decides victims and observes cache events. Implementations live
// in internal/replacement. Methods are invoked with the set index and the
// way within that set.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset sizes the policy's metadata for a sets x ways cache and clears
	// all learned state.
	Reset(sets, ways int)
	// OnHit fires on every access that hits (including prefetch probes).
	OnHit(set, way int, ai AccessInfo)
	// OnFill fires when a line is installed into a way.
	OnFill(set, way int, ai AccessInfo)
	// OnEvict fires when a valid line is evicted by replacement (not by
	// explicit invalidation); reref reports whether the line was ever
	// referenced again after fill.
	OnEvict(set, way int, reref bool)
	// Victim picks the way to replace in set; every way is valid when it
	// is called.
	Victim(set int, ai AccessInfo) int
}

// Demoter is optionally implemented by policies that support moving a line
// to the most-replaceable position without invalidating it (the paper's
// "reducing LRU priority" variant of the invalidate instruction).
//
// The contract, locked by probetest.CheckDemoterContract for every
// catalog policy:
//
//   - Demote(set, way) fires only for resident lines: Cache.Demote
//     resolves the line first and is a no-op (never a policy callback)
//     for non-resident or just-evicted lines, so demoting such a line
//     is always harmless.
//   - After a demote, the line must be the set's next replacement victim
//     unless a later event (its own re-reference, or another line's
//     demotion) outranks it. In particular, when every other resident
//     line has been re-referenced since fill, the demoted line IS the
//     next victim.
//   - Demotion updates replacement state only. It must not invalidate
//     the line (a subsequent access still hits) and must not train any
//     reuse predictor — it is a hint about the future, not an observed
//     access.
type Demoter interface {
	Demote(set, way int)
}

// Rewinder is implemented by policies whose whole state is one word per
// way plus one global word, so that Cache.Rollback can restore it. LRU
// implements it (its recency stamps and clock).
type Rewinder interface {
	// Words returns the live state words of set's ways.
	Words(set int) []uint64
	// Global returns the global word; SetGlobal overwrites it.
	Global() uint64
	SetGlobal(w uint64)
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks that the configuration is internally consistent and
// power-of-two indexable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	sets := c.Sets()
	if sets*c.Ways*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %dB lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// line is one tag-array entry.
type line struct {
	tag      uint64
	valid    bool
	prefetch bool // filled by a prefetch and not yet demand-referenced
	reref    bool // demand-referenced at least once after fill
	hintFree bool // way was freed by a Ripple invalidation
	demoted  bool // line was demoted by a Ripple hint (demote variant)
}

// Stats aggregates cache events. Demand numbers exclude prefetch probes
// and fills.
type Stats struct {
	Accesses       uint64 // all probes (demand + prefetch)
	DemandAccesses uint64
	DemandMisses   uint64
	PrefetchProbes uint64
	PrefetchFills  uint64
	// PrefetchUseful counts prefetched lines that received a demand hit.
	PrefetchUseful uint64
	// PrefetchUnusedEvicted counts prefetched lines evicted (or
	// invalidated) without ever being demand-referenced: cache pollution.
	PrefetchUnusedEvicted uint64
	// Evictions counts replacement-driven evictions of valid lines.
	Evictions uint64
	// Fills counts all line installs (every demand miss and prefetch fill).
	Fills uint64
	// HintInvalidations counts Ripple `invalidate` executions that found
	// their victim resident; HintMisses counts ones that did not.
	HintInvalidations uint64
	HintMisses        uint64
	// HintFreedFills counts replacement decisions attributed to Ripple:
	// fills that landed in a way freed by an `invalidate`, plus evictions
	// of lines pushed out by a demote hint — the numerator of replacement
	// coverage.
	HintFreedFills uint64
	// ReplacementDecisions counts all decisions that displaced (or had
	// displaced) a line: policy evictions plus fills into hint-freed ways
	// — the denominator of replacement coverage.
	ReplacementDecisions uint64
	// Demotions counts executed demote hints that found their line.
	Demotions uint64
}

// Coverage returns the fraction of replacement decisions initiated by
// Ripple hints (Fig. 9 of the paper).
func (s Stats) Coverage() float64 {
	if s.ReplacementDecisions == 0 {
		return 0
	}
	return float64(s.HintFreedFills) / float64(s.ReplacementDecisions)
}

// Cache is a single level of the instruction hierarchy.
type Cache struct {
	policy  Policy
	sets    []line // ways entries per set, row-major by set
	ways    int
	setMask uint64
	Stats   Stats
	// j is the undo journal; nil until Mark.
	j *journal
	// idx is the line→way index (see Index): idx[l-idxFirst] is 1 + the
	// way holding line l, 0 when l is not resident. Empty when unindexed.
	idx      []uint8
	idxFirst uint64
}

// journal holds what Rollback needs to return a cache to its mark: the
// stats and global policy word at the mark, and a copy of every set,
// taken before the set's first change since the mark.
type journal struct {
	rw     Rewinder
	stats  Stats
	global uint64
	saved  []bool   // per set: copied since the mark
	sets   []int32  // the copied sets, in copy order
	lines  []line   // their tag entries, ways per set
	words  []uint64 // their policy words, ways per set
}

// New builds a cache with the given geometry and replacement policy.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		policy:  p,
		sets:    make([]line, cfg.Sets()*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}
	p.Reset(cfg.Sets(), cfg.Ways)
	return c, nil
}

// SetOf returns the set index for a line address.
func (c *Cache) SetOf(lineAddr uint64) int { return int(lineAddr & c.setMask) }

func (c *Cache) row(set int) []line {
	return c.sets[set*c.ways : (set+1)*c.ways]
}

// AccessResult describes the outcome of one probe.
type AccessResult struct {
	Hit bool
	// Way locates the line in its set after the access.
	Way int
	// Evicted holds the replaced line address when a valid line was
	// evicted to make room; EvictedValid marks it meaningful.
	Evicted      uint64
	EvictedValid bool
	// HintFreed reports that a miss filled into a way freed by a Ripple
	// invalidation (a Ripple-initiated replacement decision).
	HintFreed bool
}

// Access probes for a line and fills it on a miss. Prefetch probes that
// miss install the line marked as a prefetch; prefetch probes that hit are
// counted but do not change prefetch bits.
func (c *Cache) Access(ai AccessInfo) AccessResult {
	set := c.SetOf(ai.Line)
	c.journal(set)
	row := c.row(set)
	for w := range row {
		if row[w].valid && row[w].tag == ai.Line {
			c.hit(set, w, ai)
			return AccessResult{Hit: true, Way: w}
		}
	}

	// Miss.
	c.count(ai)
	if !ai.Prefetch {
		c.Stats.DemandMisses++
	}
	var res AccessResult
	way := c.pickWay(set, ai, &res)
	if res.EvictedValid {
		c.note(res.Evicted, 0)
	}
	row[way] = line{tag: ai.Line, valid: true, prefetch: ai.Prefetch}
	c.note(ai.Line, way+1)
	c.Stats.Fills++
	if ai.Prefetch {
		c.Stats.PrefetchFills++
	}
	res.Way = way
	c.policy.OnFill(set, way, ai)
	return res
}

// TryHit performs ai exactly as Access would when the index shows its line
// resident, without scanning the set or building an AccessResult, and
// reports whether it did. For a line the index shows absent, a line
// outside the index, or any line of an unindexed cache it does nothing and
// returns false: the caller then calls Access.
func (c *Cache) TryHit(ai AccessInfo) bool {
	i := ai.Line - c.idxFirst
	if i >= uint64(len(c.idx)) || c.idx[i] == 0 {
		return false
	}
	c.hit(c.SetOf(ai.Line), int(c.idx[i])-1, ai)
	return true
}

// count counts one probe.
func (c *Cache) count(ai AccessInfo) {
	c.Stats.Accesses++
	if ai.Prefetch {
		c.Stats.PrefetchProbes++
	} else {
		c.Stats.DemandAccesses++
	}
}

// hit counts and performs a hit on way w of set. A demand hit uses up the
// line's prefetch, marks it re-referenced and cancels an earlier demote
// hint's claim on it; every hit, prefetch probes included, reaches the
// policy.
func (c *Cache) hit(set, w int, ai AccessInfo) {
	c.count(ai)
	if !ai.Prefetch {
		ln := &c.sets[set*c.ways+w]
		if ln.prefetch {
			c.Stats.PrefetchUseful++
			ln.prefetch = false
		}
		ln.reref = true
		ln.demoted = false
	}
	c.policy.OnHit(set, w, ai)
}

// pickWay selects the fill target: an invalid way if one exists (hint-freed
// ways are preferred so coverage attribution is exact), otherwise the
// policy's victim.
func (c *Cache) pickWay(set int, ai AccessInfo, res *AccessResult) int {
	row := c.row(set)
	invalid := -1
	for w := range row {
		if !row[w].valid {
			if row[w].hintFree {
				c.Stats.HintFreedFills++
				c.Stats.ReplacementDecisions++
				res.HintFreed = true
				row[w].hintFree = false
				return w
			}
			if invalid < 0 {
				invalid = w
			}
		}
	}
	if invalid >= 0 {
		return invalid
	}
	w := c.policy.Victim(set, ai)
	if w < 0 || w >= c.ways {
		panic(fmt.Sprintf("cache: policy %s returned invalid victim way %d", c.policy.Name(), w))
	}
	v := &row[w]
	res.Evicted = v.tag
	res.EvictedValid = true
	c.Stats.Evictions++
	c.Stats.ReplacementDecisions++
	if v.prefetch {
		c.Stats.PrefetchUnusedEvicted++
	}
	if v.demoted {
		// The victim was pushed to the replaceable position by a Ripple
		// demote hint: this replacement decision belongs to Ripple.
		c.Stats.HintFreedFills++
		res.HintFreed = true
	}
	c.policy.OnEvict(set, w, v.reref)
	return w
}

// Invalidate executes a Ripple `invalidate` hint: if the line is resident
// it is dropped and its way is marked hint-freed so the next fill in this
// set is attributed to Ripple. It reports whether the line was resident.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.SetOf(lineAddr)
	c.journal(set)
	row := c.row(set)
	for w := range row {
		if row[w].valid && row[w].tag == lineAddr {
			if row[w].prefetch {
				c.Stats.PrefetchUnusedEvicted++
			}
			row[w] = line{hintFree: true}
			c.note(lineAddr, 0)
			c.Stats.HintInvalidations++
			return true
		}
	}
	c.Stats.HintMisses++
	return false
}

// Demote executes the LRU-priority-lowering variant of the hint: the line
// stays resident but becomes the set's preferred victim. It reports whether
// the line was resident and the policy supports demotion.
func (c *Cache) Demote(lineAddr uint64) bool {
	d, ok := c.policy.(Demoter)
	if !ok {
		return false
	}
	set := c.SetOf(lineAddr)
	c.journal(set)
	row := c.row(set)
	for w := range row {
		if row[w].valid && row[w].tag == lineAddr {
			d.Demote(set, w)
			// A subsequent eviction of this way counts as Ripple-initiated.
			row[w].demoted = true
			c.Stats.Demotions++
			return true
		}
	}
	c.Stats.HintMisses++
	return false
}

// Contains reports whether the line is resident.
func (c *Cache) Contains(lineAddr uint64) bool {
	row := c.row(c.SetOf(lineAddr))
	for w := range row {
		if row[w].valid && row[w].tag == lineAddr {
			return true
		}
	}
	return false
}

// Index makes the cache keep a line→way index over the lines [first,
// first+len(table)) in the caller's table, so that TryHit finds a
// resident line in one read instead of a scan of its set. Index fills the
// table from the cache's contents; from then on every fill, eviction and
// invalidation keeps it exact, and the caller must not write it. The index
// changes no outcome and no statistic. A cache with more than 255 ways
// stays unindexed, because an entry is one byte, and serves every line by
// the scan. A marked cache cannot be indexed, nor an indexed one marked:
// Rollback does not restore the index.
func (c *Cache) Index(first uint64, table []uint8) {
	if c.j != nil {
		panic("cache: a marked cache cannot be indexed")
	}
	if c.ways > math.MaxUint8 {
		return
	}
	clear(table)
	c.idx, c.idxFirst = table, first
	for i, ln := range c.sets {
		if ln.valid {
			c.note(ln.tag, i%c.ways+1)
		}
	}
}

// note sets line l's index entry to e (1 + its way, or 0 for absent) when
// l is indexed.
func (c *Cache) note(l uint64, e int) {
	if i := l - c.idxFirst; i < uint64(len(c.idx)) {
		c.idx[i] = uint8(e)
	}
}

// Mark starts journaling: from now on the cache copies each set, with
// its policy words, before the set's first change, so that Rollback can
// return it to the state it has now. The policy must implement Rewinder,
// and the cache must not be indexed. Marking costs nothing per access
// beyond one check; a rollback costs the sets changed since the mark, not
// the cache's size.
func (c *Cache) Mark() {
	rw, ok := c.policy.(Rewinder)
	if !ok {
		panic(fmt.Sprintf("cache: policy %s cannot be rolled back", c.policy.Name()))
	}
	if c.idx != nil {
		panic("cache: an indexed cache cannot be marked")
	}
	c.j = &journal{rw: rw, stats: c.Stats, global: rw.Global(), saved: make([]bool, c.setMask+1)}
}

// journal copies set before its first change since the mark.
func (c *Cache) journal(set int) {
	if j := c.j; j != nil && !j.saved[set] {
		c.save(set)
	}
}

func (c *Cache) save(set int) {
	j := c.j
	j.saved[set] = true
	j.sets = append(j.sets, int32(set))
	j.lines = append(j.lines, c.row(set)...)
	j.words = append(j.words, j.rw.Words(set)...)
}

// Rollback restores the tags, policy state and Stats the cache had at
// Mark, and keeps the mark: the next Rollback returns to the same state.
func (c *Cache) Rollback() {
	j := c.j
	for i, set := range j.sets {
		copy(c.row(int(set)), j.lines[i*c.ways:(i+1)*c.ways])
		copy(j.rw.Words(int(set)), j.words[i*c.ways:(i+1)*c.ways])
		j.saved[set] = false
	}
	j.sets, j.lines, j.words = j.sets[:0], j.lines[:0], j.words[:0]
	c.Stats = j.stats
	j.rw.SetGlobal(j.global)
}

// MPKI returns demand misses per kilo-instruction given an instruction
// count.
func (s Stats) MPKI(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instrs) * 1000
}

// Sub returns the element-wise difference a-b of two stats snapshots; the
// frontend uses it to report steady-state (post-warmup) numbers.
func Sub(a, b Stats) Stats {
	return Stats{
		Accesses:              a.Accesses - b.Accesses,
		DemandAccesses:        a.DemandAccesses - b.DemandAccesses,
		DemandMisses:          a.DemandMisses - b.DemandMisses,
		PrefetchProbes:        a.PrefetchProbes - b.PrefetchProbes,
		PrefetchFills:         a.PrefetchFills - b.PrefetchFills,
		PrefetchUseful:        a.PrefetchUseful - b.PrefetchUseful,
		PrefetchUnusedEvicted: a.PrefetchUnusedEvicted - b.PrefetchUnusedEvicted,
		Evictions:             a.Evictions - b.Evictions,
		Fills:                 a.Fills - b.Fills,
		HintInvalidations:     a.HintInvalidations - b.HintInvalidations,
		HintMisses:            a.HintMisses - b.HintMisses,
		HintFreedFills:        a.HintFreedFills - b.HintFreedFills,
		ReplacementDecisions:  a.ReplacementDecisions - b.ReplacementDecisions,
		Demotions:             a.Demotions - b.Demotions,
	}
}
