// Package runner schedules independent, deterministic simulation jobs
// across a worker pool and memoizes their results in memory and in an
// optional content-addressed on-disk store.
//
// A Job couples a stable string signature with the computation it
// identifies: equal signatures MUST mean bit-identical results, because
// the pool deduplicates concurrent requests (singleflight), serves
// repeats from memory, and serves later processes from the store without
// ever re-running the job. Determinism is the caller's contract; jobs
// that need randomness must derive it from Seed(sig) (or an equivalent
// signature-keyed seed) rather than any shared or time-dependent source,
// so results do not depend on scheduling order or worker count. A job
// with an empty signature is a plain job: it runs every time it is
// asked for and is never coalesced, memoized or persisted.
//
// The pool executes batches largest-cost-first so long-pole jobs start
// early, captures panics as errors, and reports structured progress
// (jobs done/total, per-job wall time, store hit/miss counts) to an
// optional log writer.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of deterministic work, identified by its signature.
type Job struct {
	// Sig is the full run signature: every input that can change the
	// result must be encoded in it (see the package comment). Empty
	// makes a plain job, run on every request and kept nowhere.
	Sig string
	// Label is the short human-readable name used in progress logs.
	Label string
	// Cost is a relative scheduling hint; batches run largest-first.
	Cost float64

	run    func() (any, error)
	decode func([]byte) (any, error)
}

// NewJob builds a job whose result is a *T. Results are persisted as
// JSON, so T must round-trip through encoding/json. A body that returns
// a nil *T without an error fails the job: persisted, it would read back
// as a zero T.
func NewJob[T any](sig, label string, cost float64, fn func() (*T, error)) Job {
	return Job{
		Sig:   sig,
		Label: label,
		Cost:  cost,
		run: func() (any, error) {
			v, err := fn()
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, errors.New("runner: job returned neither a result nor an error")
			}
			return v, nil
		},
		decode: func(raw []byte) (any, error) {
			v := new(T)
			if err := json.Unmarshal(raw, v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// Seed derives a deterministic 64-bit RNG seed from a job signature
// (FNV-1a), so each job can own a private random stream that depends
// only on what the job is, never on when or where it runs.
func Seed(sig string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= prime64
	}
	return h
}

// Options configures a Pool.
type Options struct {
	// Workers bounds the worker goroutines batches spawn; each batch's
	// caller drains beside them (see RunAll). <= 0 uses GOMAXPROCS.
	Workers int
	// Store, when non-nil, persists every successful result.
	Store *Store
	// Log receives progress lines (nil silences them).
	Log io.Writer
	// Retries bounds re-executions of a job attempt whose error is
	// Transient; 0 disables retry.
	Retries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// attempt with signature-seeded jitter (see RetryDelay); <= 0
	// defaults to 10ms.
	RetryBackoff time.Duration
}

// Stats summarizes what a pool has done so far.
type Stats struct {
	// Computed counts jobs that actually executed.
	Computed int64
	// StoreHits counts jobs served from the on-disk store.
	StoreHits int64
	// MemHits counts jobs served from (or coalesced with) an earlier
	// in-process call.
	MemHits int64
	// Errors counts failed job executions (including panics).
	Errors int64
	// Retries counts re-executions after transient errors.
	Retries int64
	// Quarantined counts damaged store entries moved aside (see
	// Store.QuarantineDir) instead of being silently re-missed every run.
	Quarantined int64
	// Recovered counts quarantined entries that were recomputed and
	// rewritten, making the next warm run hit again.
	Recovered int64
	// ComputeTime is the summed wall time of executed jobs.
	ComputeTime time.Duration
}

// call is one in-flight or completed computation (singleflight slot).
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Pool runs jobs across a bounded set of workers.
type Pool struct {
	workers int
	store   *Store
	log     *syncWriter
	retries int
	backoff time.Duration
	// sem is the pool-wide worker budget: every worker goroutine a RunAll
	// batch spawns holds one slot while it runs, so nested batches share
	// the budget instead of multiplying it.
	sem chan struct{}

	mu    sync.Mutex
	calls map[string]*call // signed jobs only

	computed    atomic.Int64
	storeHits   atomic.Int64
	memHits     atomic.Int64
	errs        atomic.Int64
	retried     atomic.Int64
	quarantined atomic.Int64
	recovered   atomic.Int64
	computeTime atomic.Int64 // nanoseconds
}

// New builds a pool.
func New(opts Options) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	return &Pool{
		workers: w,
		store:   opts.Store,
		log:     &syncWriter{w: opts.Log},
		retries: opts.Retries,
		backoff: backoff,
		sem:     make(chan struct{}, w),
		calls:   make(map[string]*call),
	}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// LogWriter returns a writer that serializes concurrent writes to the
// configured log (safe to share with job bodies).
func (p *Pool) LogWriter() io.Writer { return p.log }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Computed:    p.computed.Load(),
		StoreHits:   p.storeHits.Load(),
		MemHits:     p.memHits.Load(),
		Errors:      p.errs.Load(),
		Retries:     p.retried.Load(),
		Quarantined: p.quarantined.Load(),
		Recovered:   p.recovered.Load(),
		ComputeTime: time.Duration(p.computeTime.Load()),
	}
}

func (p *Pool) logf(format string, args ...any) {
	p.log.printf(format, args...)
}

// Do returns the job's result, computing a signed job at most once per
// process: concurrent calls with the same signature coalesce, completed
// results are served from memory, and (with a store) from disk across
// processes. A plain job (empty signature) runs on every call. A cache
// miss computes inline on the caller's goroutine, so nested Do calls
// from inside a running job cannot deadlock.
func (p *Pool) Do(j Job) (any, error) {
	v, _, err := p.do(j)
	return v, err
}

func (p *Pool) do(j Job) (v any, computed bool, err error) {
	if j.run == nil {
		return nil, false, errors.New("runner: job has no body")
	}
	if j.Sig == "" {
		return p.compute(j)
	}
	p.mu.Lock()
	if c, ok := p.calls[j.Sig]; ok {
		p.mu.Unlock()
		<-c.done
		p.memHits.Add(1)
		return c.val, false, c.err
	}
	c := &call{done: make(chan struct{})}
	p.calls[j.Sig] = c
	p.mu.Unlock()

	c.val, computed, c.err = p.compute(j)
	close(c.done)
	return c.val, computed, c.err
}

// compute runs the job, serving a signed job from the store when it holds
// a valid entry and persisting what it runs.
func (p *Pool) compute(j Job) (any, bool, error) {
	persist := p.store != nil && j.Sig != ""
	healing := false // a damaged entry was quarantined; Put will heal it
	if persist {
		raw, st := p.store.Lookup(j.Sig)
		switch st {
		case StatusHit:
			if v, err := j.decode(raw); err == nil {
				p.storeHits.Add(1)
				return v, false, nil
			}
			// Valid entry framing but an undecodable payload (schema
			// drift): quarantine it like any other corruption.
			p.store.quarantine(j.Sig)
			p.quarantined.Add(1)
			healing = true
			p.logf("[runner] quarantined undecodable store entry for %s (recomputing)", j.label())
		case StatusCorrupt:
			p.quarantined.Add(1)
			healing = true
			p.logf("[runner] quarantined corrupt store entry for %s (recomputing)", j.label())
		}
	}
	t0 := time.Now()
	v, err := p.runWithRetry(j)
	d := time.Since(t0)
	if err != nil {
		p.errs.Add(1)
		return nil, false, err
	}
	p.computed.Add(1)
	p.computeTime.Add(int64(d))
	if persist {
		if perr := p.store.Put(j.Sig, v); perr != nil {
			p.logf("[runner] warning: persisting %s: %v", j.label(), perr)
		} else if healing {
			p.recovered.Add(1)
		}
	}
	return v, true, nil
}

// runWithRetry executes the job with the pool's bounded retry policy:
// attempts whose error is Transient are re-run up to Options.Retries
// times, sleeping a deterministic signature-seeded exponential backoff
// (RetryDelay) between attempts. Non-transient errors, success and retry
// exhaustion end the loop.
func (p *Pool) runWithRetry(j Job) (any, error) {
	for attempt := 0; ; attempt++ {
		v, err := runSafe(j)
		if err == nil || !Transient(err) || attempt >= p.retries {
			return v, err
		}
		p.retried.Add(1)
		delay := RetryDelay(p.backoff, j.Sig, attempt+1)
		p.logf("[runner] retry %d/%d for %s in %v after transient error: %v",
			attempt+1, p.retries, j.label(), delay.Round(time.Millisecond), err)
		time.Sleep(delay)
	}
}

// runSafe executes one job attempt, converting a panic into an error so
// one bad job cannot take down a whole suite run.
func runSafe(j Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %s panicked: %v\n%s", j.label(), r, debug.Stack())
		}
	}()
	return j.run()
}

// ErrTransient is the sentinel for errors worth retrying: wrap it (or
// implement `Transient() bool`) to opt a failure into the pool's retry
// policy.
var ErrTransient = errors.New("runner: transient error")

// Transient classifies an error as retry-worthy: it wraps ErrTransient,
// implements `Transient() bool` returning true, or is a deadline
// expiry. Context cancellation is never transient — the caller asked to
// stop.
func Transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryDelay returns the deterministic backoff before retry `attempt`
// (1-based) of the job with signature sig: base doubled per attempt,
// scaled by a jitter factor in [0.5, 1.5) seeded from the signature and
// attempt number — so a given job's retry schedule replays identically
// across runs and machines while distinct jobs spread out.
func RetryDelay(base time.Duration, sig string, attempt int) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 20 {
		shift = 20 // cap: beyond base<<20 the jitter range is already hours
	}
	d := base << uint(shift)
	jitter := 0.5 + float64(Seed(fmt.Sprintf("%s|retry=%d", sig, attempt))%(1<<20))/float64(1<<21)
	return time.Duration(float64(d) * jitter)
}

func (j Job) label() string {
	if j.Label != "" {
		return j.Label
	}
	if len(j.Sig) > 48 {
		return j.Sig[:48] + "..."
	}
	return j.Sig
}

// RunAll executes a batch of jobs across the pool's workers and returns
// each job's result in the order of jobs: duplicate signatures run once
// and share one result, and every plain job (empty signature) runs. Jobs
// run largest-cost-first, ties broken by signature (then by job order)
// for a deterministic order. Workers are spawned while the pool-wide
// budget has free slots, and the caller drains the queue beside them, so
// a batch runs up to Workers+1 jobs at once, and a batch started from
// inside a running job cannot deadlock. The first job error stops the
// scheduling of pending jobs and is returned, wrapped with the job's
// label, after all workers drain. A failed batch returns no results.
func (p *Pool) RunAll(jobs []Job) ([]any, error) {
	first := make(map[string]int, len(jobs)) // signature -> its first job
	q := make([]int, 0, len(jobs))           // the jobs to run, by index
	for i, j := range jobs {
		if j.Sig != "" {
			if _, dup := first[j.Sig]; dup {
				continue
			}
			first[j.Sig] = i
		}
		q = append(q, i)
	}
	if len(q) == 0 {
		return nil, nil
	}
	sort.SliceStable(q, func(a, b int) bool {
		ja, jb := &jobs[q[a]], &jobs[q[b]]
		if ja.Cost != jb.Cost {
			return ja.Cost > jb.Cost
		}
		return ja.Sig < jb.Sig
	})

	start := time.Now()
	before := p.Stats()
	b := &batch{pool: p, jobs: jobs, queue: q, vals: make([]any, len(jobs))}
	var wg sync.WaitGroup
spawn:
	for range q {
		select {
		case p.sem <- struct{}{}:
		default:
			break spawn
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.sem }()
			b.drain()
		}()
	}
	b.drain()
	wg.Wait()
	st := p.Stats()
	p.logf("[runner] batch: %d jobs in %v — %d computed, %d store hits, %d coalesced (%d workers)",
		len(q), time.Since(start).Round(time.Millisecond),
		st.Computed-before.Computed, st.StoreHits-before.StoreHits, st.MemHits-before.MemHits, p.workers)
	if b.cause != nil {
		return nil, b.cause
	}
	for i, j := range jobs {
		if j.Sig != "" {
			b.vals[i] = b.vals[first[j.Sig]]
		}
	}
	return b.vals, nil
}

// batch is one RunAll call's queue, claimed in order by the spawned
// workers and the draining caller.
type batch struct {
	pool  *Pool
	jobs  []Job
	queue []int // indexes into jobs, in run order
	vals  []any // vals[i] is the result of jobs[i]

	mu    sync.Mutex
	next  int   // the next unclaimed queue entry
	done  int   // jobs finished, for progress logs
	cause error // the first job failure, wrapped with its label
}

// drain runs queued jobs until the queue is empty or a job has failed.
func (b *batch) drain() {
	for {
		b.mu.Lock()
		if b.next == len(b.queue) || b.cause != nil {
			b.mu.Unlock()
			return
		}
		i := b.queue[b.next]
		b.next++
		b.mu.Unlock()
		b.run(i)
	}
}

func (b *batch) run(i int) {
	j := b.jobs[i]
	t0 := time.Now()
	v, computed, err := b.pool.do(j)
	b.mu.Lock()
	b.vals[i] = v
	if err != nil && b.cause == nil {
		b.cause = fmt.Errorf("runner: job %s: %w", j.label(), err)
	}
	b.done++
	n := b.done
	b.mu.Unlock()
	if computed {
		b.pool.logf("[runner] %d/%d %s (%v)", n, len(b.queue), j.label(), time.Since(t0).Round(time.Millisecond))
	}
}

// syncWriter serializes writes; a nil underlying writer discards them.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	if s.w == nil {
		return len(b), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}

func (s *syncWriter) printf(format string, args ...any) {
	if s.w == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, format+"\n", args...)
}
