package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the ID of the enclosing span (0
// for a root). Start and End are offsets from the tracer's creation.
type span struct {
	Run    string            `json:"run"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	// AllocBytes is the heap allocated by the whole process while the
	// span was open.
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory. The benchmark calls
// layers from a single goroutine, so open spans form a stack. A nil
// *tracer records nothing: the timed passes run with tracing off.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans still open
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span named name and returns the function that closes it.
// Attributes come in key, value pairs.
func (t *tracer) begin(name string, kv ...string) func() {
	if t == nil {
		return func() {}
	}
	s := span{Run: t.run, ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0)}
	if len(t.open) > 0 {
		s.Parent = t.spans[t.open[len(t.open)-1]].ID
	}
	if len(kv) > 0 {
		s.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.Attrs[kv[i]] = kv[i+1]
		}
	}
	alloc0 := heapAllocBytes()
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	return func() {
		sp := &t.spans[idx]
		sp.End = time.Since(t.t0)
		sp.AllocBytes = heapAllocBytes() - alloc0
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval that its children cover. Children may
// overlap one another (concurrent calls) or stick out of the parent; only
// the union of their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered time.Duration
		var cur iv
		for i, v := range ivs {
			switch {
			case i == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// total sums the durations of the spans with the given name; match, when
// non-nil, further filters them.
func (t *tracer) total(name string, match func(span) bool) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && (match == nil || match(s)) {
			d += s.dur()
		}
	}
	return d
}

// find returns the first span with the given name.
func (t *tracer) find(name string) (span, bool) {
	for _, s := range t.spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// write saves the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
