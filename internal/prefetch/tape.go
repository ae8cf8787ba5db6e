package prefetch

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

// The op byte a tape holds for each retire.
const (
	opQueued     = 3      // bits 0-1: blocks the walk enqueued (0-2)
	opMispredict = 1 << 2 // the retired block's successor was mispredicted
	opRestart    = 1 << 3 // the walk restarted from the retired successor
	opFall       = 1 << 4 // bits 4-5: enqueued block i is its walk predecessor's fall-through
	opNextShift  = 6      // bits 6-7: the retired successor's ID & 3
)

const (
	// tapeChunk is the size of the chunks a tape grows by: a tape never
	// copies what it has recorded.
	tapeChunk = 64 << 10
	// maxRecord is one retire's largest record: its op byte and two
	// block IDs.
	maxRecord = 1 + 2*4
)

// Tape is FDIP's output over one block source, recorded once for a batch
// of runs. FDIP's prefetches never depend on cache state: a retire reads
// only the retired block, its successor and the engine's own predictor,
// which indexes by block ID. So every run over the source, whatever its
// policy, hints, warmup, plan or layout, gets the same stream of enqueued
// blocks, and a replay issues their lines against the run's own program.
//
// A retire takes one op byte (see the op constants). The blocks it
// enqueued follow as 4-byte IDs, except those that are the fall-through
// of their walk predecessor: the retired successor after a restart, else
// the block enqueued just before.
//
// A replay checks that its blocks are the recorded ones. Each retire's
// successor must match the low two ID bits its op byte keeps, which stops
// a diverging replay within a few retires (3 in 4 wrong successors fail
// there). At the end the retire count and a 64-bit hash of the retired
// blocks must match the tape's, so a source that yields other blocks, more
// or fewer fails its run unless its blocks collide in that hash.
type Tape struct {
	chunks  [][]byte
	retires int
	sum     uint64 // streamSum over the retired blocks
}

// streamSum folds a retire's new blocks into h: the retired block on the
// first retire (later ones retire the previous successor) and its
// successor. So each block of the stream is folded once, in order, and
// each fold is a bijection both of h and of the block: streams that differ
// in one block always differ in their sums, others collide only by chance.
func streamSum(h uint64, first bool, bid, next program.BlockID) uint64 {
	const prime64 = 1099511628211
	if first {
		h = (h ^ uint64(bid)) * prime64
	}
	return (h ^ uint64(next)) * prime64
}

// Bytes returns the tape's recorded size.
func (t *Tape) Bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// RecordTape records f's output over one pass of src, retiring each block
// with its successor as the frontend does. f must be fresh; it is spent
// afterwards.
func RecordTape(f *FDIP, src blockseq.Source) (*Tape, error) {
	t := &Tape{}
	noop := func(uint64) {}
	seq := src.Open()
	bid, ok := seq.Next()
	for ok {
		next, haveNext := seq.Next()
		if !haveNext {
			break
		}
		started, squashes, queued, pc := f.started, f.Squashes, len(f.ftq), f.runPC
		missed, _ := f.Mispredicts()
		f.OnBlockRetire(bid, next, noop)

		op := byte(next&3) << opNextShift
		kept := queued - 1 // the popped head
		if !started || f.Squashes != squashes {
			op |= opRestart
			kept, pc = 0, next
		}
		if now, _ := f.Mispredicts(); now != missed { // a retire predicts one successor
			op |= opMispredict
		}
		queuedNow := f.ftq[kept:]
		if len(queuedNow) > 2 {
			return nil, fmt.Errorf("prefetch: FDIP enqueued %d blocks in one retire; a tape holds at most 2", len(queuedNow))
		}
		op |= byte(len(queuedNow))
		var ids [2]program.BlockID
		n := 0
		for i, nb := range queuedNow {
			if nb == f.prog.Block(pc).FallThrough {
				op |= opFall << i
			} else {
				ids[n] = nb
				n++
			}
			pc = nb
		}
		c := t.room()
		*c = append(*c, op)
		for _, id := range ids[:n] {
			*c = binary.LittleEndian.AppendUint32(*c, uint32(id))
		}
		t.sum = streamSum(t.sum, t.retires == 0, bid, next)
		t.retires++
		bid = next
	}
	if err := seq.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// room returns the chunk the next record goes to, starting a new one when
// the last cannot hold a whole record.
func (t *Tape) room() *[]byte {
	if n := len(t.chunks); n == 0 || cap(t.chunks[n-1])-len(t.chunks[n-1]) < maxRecord {
		t.chunks = append(t.chunks, make([]byte, 0, tapeChunk))
	}
	return &t.chunks[len(t.chunks)-1]
}

// replay is FDIP as its tape recorded it, issuing the tape's prefetches
// against prog: the program the tape was recorded on, or a copy of it
// with injections or another layout (block IDs and control flow
// unchanged).
type replay struct {
	tape    *Tape
	prog    *program.Program
	chunk   int    // chunks taken so far
	rest    []byte // the unread part of the current chunk
	pc      program.BlockID
	retires int
	sum     uint64
	missed  uint64
	err     error
}

// Name implements Prefetcher: a replay stands in for FDIP.
func (r *replay) Name() string { return "fdip" }

// OnBlockRetire implements Prefetcher.
func (r *replay) OnBlockRetire(bid, next program.BlockID, issue IssueFunc) {
	if r.err != nil {
		return
	}
	if len(r.rest) == 0 {
		if r.chunk == len(r.tape.chunks) {
			r.err = fmt.Errorf("prefetch: the block stream runs past its FDIP tape's %d retires", r.tape.retires)
			return
		}
		r.rest = r.tape.chunks[r.chunk]
		r.chunk++
	}
	op := r.rest[0]
	if program.BlockID(op>>opNextShift) != next&3 {
		r.err = fmt.Errorf("prefetch: the block stream leaves its FDIP tape at retire %d", r.retires)
		return
	}
	r.rest = r.rest[1:]
	r.sum = streamSum(r.sum, r.retires == 0, bid, next)
	r.retires++
	if op&opMispredict != 0 {
		r.missed++
	}
	if op&opRestart != 0 {
		r.pc = next
	}
	for i := 0; i < int(op&opQueued); i++ {
		nb := r.prog.Block(r.pc).FallThrough
		if op&(opFall<<i) == 0 {
			nb = program.BlockID(binary.LittleEndian.Uint32(r.rest))
			r.rest = r.rest[4:]
		} else if nb == program.NoBlock {
			// Only a stream that left the tape walks to a block without
			// a fall-through.
			r.err = fmt.Errorf("prefetch: the block stream leaves its FDIP tape at retire %d", r.retires)
			return
		}
		first, end := r.prog.Block(nb).LineRange()
		for l := first; l < end; l++ {
			issue(l)
		}
		r.pc = nb
	}
}

// Mispredicts returns the replayed mispredictions so far. It fails once
// the retired blocks have left the tape's stream, while they are fewer
// than the tape's, or when all of them are retired but their hash is not
// the tape's: the frontend reads it at the end of a run.
func (r *replay) Mispredicts() (uint64, error) {
	switch {
	case r.err != nil:
		return r.missed, r.err
	case r.retires < r.tape.retires:
		return r.missed, fmt.Errorf("prefetch: the block stream ends %d retires short of its FDIP tape", r.tape.retires-r.retires)
	case r.sum != r.tape.sum:
		return r.missed, fmt.Errorf("prefetch: the block stream leaves its FDIP tape (its hash differs)")
	}
	return r.missed, nil
}

// Batch hands out the prefetchers of a batch of runs over one block
// source: every FDIP run replays one tape, recorded by the first run that
// asks for one, and every other prefetcher is built fresh. A batch whose
// runs are all served from a result store records nothing.
type Batch struct {
	prog *program.Program
	src  blockseq.Source
	once sync.Once
	tape *Tape
	err  error
}

// tapeRounds is the fewest FDIP runs per concurrent run for which a tape
// pays. Recording costs a decode pass plus FDIP's prediction, about three
// times what a replay saves over a live run (500k kafka blocks, LRU:
// record 73 ms, live run 105 ms, replay 78 ms), and the batch's FDIP runs
// wait for it. So the recording pays once every run slot has at least
// four FDIP runs to do.
const tapeRounds = 4

// NewBatch starts a batch of runs of prog, or of copies of it with
// injections or another layout, over src: fdipRuns of them under FDIP, at
// most slots at once. It returns nil, a batch that builds every
// prefetcher live, when a tape would not pay for its recording: when the
// FDIP runs fill fewer than tapeRounds rounds of the runs that can go at
// once, which are no more than GOMAXPROCS.
func NewBatch(prog *program.Program, src blockseq.Source, fdipRuns, slots int) *Batch {
	if !tapePays(fdipRuns, min(slots, runtime.GOMAXPROCS(0))) {
		return nil
	}
	return &Batch{prog: prog, src: src}
}

// tapePays reports whether runs FDIP runs, parallel at a time, take at
// least tapeRounds rounds.
func tapePays(runs, parallel int) bool {
	return runs > (tapeRounds-1)*max(parallel, 1)
}

// New returns a fresh prefetcher named name for one run of the batch on
// prog. A nil batch builds every prefetcher live.
func (b *Batch) New(name string, prog *program.Program) (Prefetcher, error) {
	if b == nil || name != "fdip" {
		return New(name, prog)
	}
	b.once.Do(func() {
		pf, err := New(name, b.prog)
		if err == nil {
			b.tape, err = RecordTape(pf.(*FDIP), b.src)
		}
		if err != nil {
			b.err = fmt.Errorf("prefetch: recording FDIP tape: %w", err)
		}
	})
	if b.err != nil {
		return nil, b.err
	}
	return &replay{tape: b.tape, prog: prog, pc: program.NoBlock}, nil
}
