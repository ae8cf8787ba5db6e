package core

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"

	"ripple/internal/program"
)

// Plan is a link-time injection plan: for each cue block, the victim cache
// lines (profiled-layout addresses) whose invalidation it triggers.
type Plan struct {
	Program   string
	Threshold float64
	// Injections maps cue block -> victim lines (deduplicated).
	Injections map[program.BlockID][]uint64

	// WindowsTotal and WindowsCovered summarize how many ideal eviction
	// windows the plan covers at this threshold (the analysis-side
	// predictor of Fig. 9's runtime coverage).
	WindowsTotal   int
	WindowsCovered int
	// SkippedJIT counts selected cues discarded because they live in JIT
	// code (drupal/mediawiki/wordpress, Sec. IV).
	SkippedJIT int
	// SkippedKernel counts selected cues discarded because they live in
	// kernel-mode code (traced but not injectable).
	SkippedKernel int
}

// PlanAt emits the injection plan for one invalidation threshold: every
// eviction window's best cue block receives an invalidation for the
// window's victim line iff its conditional probability clears the
// threshold. Cue blocks in JIT code are skipped (their addresses are
// reused across the run, so link-time injection is impossible). A
// (line, cue) pair's probability does not depend on the window, so the
// plan is the prefix of the ranked pairs that clears the threshold.
func (a *Analysis) PlanAt(threshold float64) *Plan {
	prefix := a.pairs[:sort.Search(len(a.pairs), func(i int) bool {
		return a.pairs[i].probability < threshold
	})]
	p := &Plan{
		Program:      a.Prog.Name,
		Threshold:    threshold,
		WindowsTotal: a.Windows,
	}
	// victims first holds each injected pair as (cue block, line index);
	// sorted, each block's run of it becomes that block's victim list.
	victims := make([]uint64, 0, len(prefix))
	for _, c := range prefix {
		switch b := a.Prog.Block(c.block); {
		case b.JIT:
			p.SkippedJIT += int(c.windows)
		case b.Kernel:
			p.SkippedKernel += int(c.windows)
		default:
			p.WindowsCovered += int(c.windows) // one instruction covers them all
			victims = append(victims, uint64(c.block)<<32|uint64(c.li))
		}
	}
	slices.Sort(victims)
	blocks := 0
	for i := range victims {
		if i == 0 || victims[i]>>32 != victims[i-1]>>32 {
			blocks++
		}
	}
	p.Injections = make(map[program.BlockID][]uint64, blocks)
	for i := 0; i < len(victims); {
		block := victims[i] >> 32
		run := i
		for ; i < len(victims) && victims[i]>>32 == block; i++ {
			victims[i] = a.lines[uint32(victims[i])]
		}
		slices.Sort(victims[run:i])
		p.Injections[program.BlockID(block)] = victims[run:i:i]
	}
	return p
}

// StaticInstructions returns the number of invalidate instructions the
// plan injects.
func (p *Plan) StaticInstructions() int {
	n := 0
	for _, v := range p.Injections {
		n += len(v)
	}
	return n
}

// injections returns the plan's injections; a nil plan has none.
func (p *Plan) injections() map[program.BlockID][]uint64 {
	if p == nil {
		return nil
	}
	return p.Injections
}

// Apply rewrites prog (the profiled program) with the plan's injections,
// returning the new laid-out image. Victim line addresses are translated
// into the rewritten layout by the program package.
func (p *Plan) Apply(prog *program.Program) *program.Program {
	return prog.WithInjections(p.Injections)
}

// planImage is the serialized form of a Plan.
type planImage struct {
	Program        string
	Threshold      float64
	Blocks         []program.BlockID
	Victims        [][]uint64
	WindowsTotal   int
	WindowsCovered int
	SkippedJIT     int
	SkippedKernel  int
}

func init() {
	// Number planImage's gob types right after the program image's (see
	// package program), so Save's bytes, and Digest, are the same in
	// every process whatever it encoded first. An encoding error would be
	// Save's own, which Save reports.
	_ = gob.NewEncoder(io.Discard).Encode(planImage{})
}

// Save writes the plan (gob-encoded) to w; cmd/rippleanalyze emits plans
// this way for cmd/ripplesim to consume.
func (p *Plan) Save(w io.Writer) error {
	img := planImage{
		Program:        p.Program,
		Threshold:      p.Threshold,
		WindowsTotal:   p.WindowsTotal,
		WindowsCovered: p.WindowsCovered,
		SkippedJIT:     p.SkippedJIT,
		SkippedKernel:  p.SkippedKernel,
	}
	blocks := make([]program.BlockID, 0, len(p.Injections))
	for b := range p.Injections {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		img.Blocks = append(img.Blocks, b)
		img.Victims = append(img.Victims, p.Injections[b])
	}
	return gob.NewEncoder(w).Encode(img)
}

// Digest returns a stable content hash of the plan: the SHA-256 (hex)
// of its serialized form (Save emits blocks and victims in sorted
// order, so the bytes are canonical). Two plans share a digest iff they
// are structurally identical, so ripplewatch's hysteresis loop can
// compare plan revisions without deep equality, and parallel tuning keys
// each per-threshold simulation job by it: a cached result can never be
// served to a structurally different plan that happens to share a
// threshold (e.g. the same threshold over a different analysis).
func (p *Plan) Digest() (string, error) {
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// LoadPlan reads a plan written by Save.
func LoadPlan(r io.Reader) (*Plan, error) {
	var img planImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	if len(img.Blocks) != len(img.Victims) {
		return nil, fmt.Errorf("core: corrupt plan: %d blocks, %d victim lists", len(img.Blocks), len(img.Victims))
	}
	p := &Plan{
		Program:        img.Program,
		Threshold:      img.Threshold,
		Injections:     make(map[program.BlockID][]uint64, len(img.Blocks)),
		WindowsTotal:   img.WindowsTotal,
		WindowsCovered: img.WindowsCovered,
		SkippedJIT:     img.SkippedJIT,
		SkippedKernel:  img.SkippedKernel,
	}
	for i, b := range img.Blocks {
		p.Injections[b] = img.Victims[i]
	}
	return p, nil
}

// ExpandVictimsToBlocks returns a copy of the plan in which every victim
// line is widened to all lines of the basic block containing it — the
// "basic block granularity" alternative of Sec. III-C's invalidation-
// granularity discussion. The paper finds block-granularity eviction
// performs best; the `granularity` experiment compares both.
func (p *Plan) ExpandVictimsToBlocks(prog *program.Program) *Plan {
	q := &Plan{
		Program:        p.Program,
		Threshold:      p.Threshold,
		Injections:     make(map[program.BlockID][]uint64, len(p.Injections)),
		WindowsTotal:   p.WindowsTotal,
		WindowsCovered: p.WindowsCovered,
		SkippedJIT:     p.SkippedJIT,
		SkippedKernel:  p.SkippedKernel,
	}
	var buf []uint64
	for cue, victims := range p.Injections {
		seen := make(map[uint64]bool, len(victims)*2)
		var out []uint64
		for _, v := range victims {
			owner := prog.BlockContaining(v << 6)
			if owner == program.NoBlock {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
				continue
			}
			buf = prog.Block(owner).Lines(buf[:0])
			for _, l := range buf {
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		q.Injections[cue] = out
	}
	return q
}

// ApplyPreservingLayout rewrites prog with the plan's injections placed
// into existing alignment padding and NOP slots (no code byte moves, no
// victim translation needed). See
// program.Program.WithInjectionsPreservingLayout.
func (p *Plan) ApplyPreservingLayout(prog *program.Program) *program.Program {
	return prog.WithInjectionsPreservingLayout(p.Injections)
}
