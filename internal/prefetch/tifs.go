package prefetch

import "ripple/internal/program"

// MissObserver is optionally implemented by prefetchers that train on
// demand-miss feedback (temporal/record-and-replay designs). The frontend
// calls it on every demand L1I miss; like OnBlockRetire, it returns dst
// with the lines it prefetches appended.
type MissObserver interface {
	OnDemandMiss(line uint64, dst []uint64) []uint64
}

// TIFS is a temporal-streaming instruction prefetcher in the spirit of
// Temporal Instruction Fetch Streaming (Ferdman et al., MICRO'08) and the
// record-and-replay family the paper's related work discusses: it records
// the global sequence of demand-miss lines in a circular log, indexes the
// most recent log position of every line, and on a miss replays the
// successors recorded after that line's previous occurrence.
//
// The paper's critique of this family — "highly effective ... but require
// impractical on-chip metadata storage" — is directly measurable here:
// MetadataBytes reports the log + index footprint, orders of magnitude
// above Table I's replacement-policy budgets.
type TIFS struct {
	prog   *program.Program
	log    []uint64
	head   int
	filled bool
	index  map[uint64]int
	degree int

	// Replays counts miss-triggered stream replays; Issued counts
	// prefetch lines emitted.
	Replays uint64
	Issued  uint64
}

// NewTIFS builds a temporal prefetcher with the given miss-log capacity
// and replay degree.
func NewTIFS(prog *program.Program, logSize, degree int) *TIFS {
	return &TIFS{
		prog:   prog,
		log:    make([]uint64, logSize),
		index:  make(map[uint64]int, logSize),
		degree: degree,
	}
}

// Name implements Prefetcher.
func (p *TIFS) Name() string { return "tifs" }

// OnBlockRetire implements Prefetcher: TIFS trains on misses only.
func (p *TIFS) OnBlockRetire(bid, next program.BlockID, dst []uint64) []uint64 { return dst }

// OnDemandMiss implements MissObserver: record the miss and replay the
// stream that followed this line last time.
func (p *TIFS) OnDemandMiss(line uint64, dst []uint64) []uint64 {
	if pos, ok := p.index[line]; ok {
		p.Replays++
		for i := 1; i <= p.degree; i++ {
			at := (pos + i) % len(p.log)
			if at == p.head { // reached the log frontier
				break
			}
			l := p.log[at]
			if l == 0 {
				break
			}
			dst = append(dst, l)
			p.Issued++
		}
	}
	p.log[p.head] = line
	p.index[line] = p.head
	p.head++
	if p.head == len(p.log) {
		p.head = 0
		p.filled = true
	}
	return dst
}

// MetadataBytes reports the storage a hardware realization would need:
// 8 bytes per log entry plus an index entry (line tag + log pointer) per
// distinct line. This is the "kilobytes of extra on-chip storage" cost the
// paper contrasts FDIP against.
func (p *TIFS) MetadataBytes() int {
	return len(p.log)*8 + len(p.index)*12
}
