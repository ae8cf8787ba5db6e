package runner

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type intRec struct {
	N int
}

func intJob(sig string, cost float64, fn func() (int, error)) Job {
	return NewJob(sig, sig, cost, func() (*intRec, error) {
		n, err := fn()
		if err != nil {
			return nil, err
		}
		return &intRec{N: n}, nil
	})
}

func TestDoComputesOnceAndMemoizes(t *testing.T) {
	p := New(Options{Workers: 4})
	var runs atomic.Int64
	j := intJob("a", 1, func() (int, error) { runs.Add(1); return 42, nil })
	for i := 0; i < 3; i++ {
		v, err := p.Do(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*intRec).N; got != 42 {
			t.Fatalf("result = %d", got)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times", runs.Load())
	}
	st := p.Stats()
	if st.Computed != 1 || st.MemHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	p := New(Options{Workers: 8})
	var runs atomic.Int64
	release := make(chan struct{})
	j := NewJob("slow", "slow", 1, func() (*intRec, error) {
		runs.Add(1)
		<-release
		return &intRec{N: 7}, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Do(j)
			if err != nil || v.(*intRec).N != 7 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times under concurrency", runs.Load())
	}
}

// holdSlot takes the pool's worker slot until the test ends. On a
// Workers: 1 pool no batch worker can then spawn, so the caller drains
// the batch alone, one job at a time in queue order.
func holdSlot(t *testing.T, p *Pool) {
	p.sem <- struct{}{}
	t.Cleanup(func() { <-p.sem })
}

func TestRunAllLargestFirst(t *testing.T) {
	p := New(Options{Workers: 1})
	holdSlot(t, p) // serial, so execution order is observable
	var order []string
	mk := func(sig string, cost float64) Job {
		return intJob(sig, cost, func() (int, error) {
			order = append(order, sig)
			return 0, nil
		})
	}
	jobs := []Job{mk("small", 1), mk("big", 100), mk("mid", 10), mk("big", 100)}
	if _, err := p.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	want := []string{"big", "mid", "small"} // dedup + cost-descending
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRunAllResultsInJobOrder: results come back in the order of the
// jobs, not of execution; duplicate signatures share one result, and
// each unsigned job runs and gets its own.
func TestRunAllResultsInJobOrder(t *testing.T) {
	p := New(Options{Workers: 2})
	var runs atomic.Int64
	mk := func(sig string, cost float64, n int) Job {
		return intJob(sig, cost, func() (int, error) { runs.Add(1); return n, nil })
	}
	jobs := []Job{mk("a", 1, 10), mk("", 2, 50), mk("b", 3, 20), mk("a", 1, 10), mk("", 1, 60), mk("c", 2, 30)}
	vals, err := p.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 50, 20, 10, 60, 30}
	if len(vals) != len(want) {
		t.Fatalf("got %d results, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if got := v.(*intRec).N; got != want[i] {
			t.Fatalf("result %d = %d, want %d", i, got, want[i])
		}
	}
	if vals[0] != vals[3] {
		t.Fatal("duplicate signatures got distinct results")
	}
	if runs.Load() != 5 {
		t.Fatalf("ran %d jobs, want 5", runs.Load())
	}
}

// TestUnsignedJobsArePlain: a job without a signature runs on every Do
// and every RunAll, twice when a batch holds it twice. Nothing coalesces
// or memoizes it, the store never sees it, and the pool keeps no call
// slot for it.
func TestUnsignedJobsArePlain(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Workers: 2, Store: store})
	var runs atomic.Int64
	j := intJob("", 1, func() (int, error) { return int(runs.Add(1)), nil })
	for want := 1; want <= 2; want++ {
		v, err := p.Do(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*intRec).N; got != want {
			t.Fatalf("Do %d returned run %d's result", want, got)
		}
	}
	vals, err := p.RunAll([]Job{j, j})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := vals[0].(*intRec).N, vals[1].(*intRec).N; a+b != 3+4 || a == b {
		t.Fatalf("a batch holding the job twice returned runs %d and %d, want 3 and 4", a, b)
	}
	if st := p.Stats(); st.Computed != 4 || st.MemHits != 0 || st.StoreHits != 0 {
		t.Fatalf("stats %+v, want 4 computed and no hits", st)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("store directory holds %d entries (%v), want none", len(entries), err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.calls) != 0 {
		t.Fatalf("the pool keeps %d call slots, want none", len(p.calls))
	}
}

// TestRunAllWorkersPlusOne pins the batch's concurrency: on a Workers: 1
// pool the spawned worker and the draining caller run two jobs at once,
// never one and never three.
func TestRunAllWorkersPlusOne(t *testing.T) {
	p := New(Options{Workers: 1})
	var inflight, peak atomic.Int64
	var once sync.Once
	two := make(chan struct{})
	release := make(chan struct{})
	var jobs []Job
	for i := 0; i < 6; i++ {
		sig := fmt.Sprintf("pin-%d", i)
		jobs = append(jobs, NewJob(sig, sig, 1, func() (*intRec, error) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			if n == 2 {
				once.Do(func() { close(two) })
			}
			<-release
			return &intRec{}, nil
		}))
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.RunAll(jobs)
		done <- err
	}()
	select {
	case <-two:
	case <-time.After(10 * time.Second):
		t.Fatal("a Workers: 1 batch never ran two jobs at once")
	}
	// Both running jobs are blocked. The spawned worker holds the pool's
	// only slot, so no second worker can start a third job.
	select {
	case p.sem <- struct{}{}:
		t.Fatal("the pool's slot is free while two jobs run")
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak jobs in flight = %d, want 2 (Workers+1)", got)
	}
}

func TestRunAllReportsJobError(t *testing.T) {
	p := New(Options{Workers: 2})
	boom := errors.New("boom")
	jobs := []Job{
		intJob("ok", 1, func() (int, error) { return 1, nil }),
		intJob("bad", 2, func() (int, error) { return 0, boom }),
	}
	_, err := p.RunAll(jobs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("RunAll error = %v", err)
	}
	if p.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

// TestRunAllErrorSkipsPending: the first failure stops the queue, so no
// pending job runs, and RunAll returns the failure wrapped.
func TestRunAllErrorSkipsPending(t *testing.T) {
	p := New(Options{Workers: 1})
	holdSlot(t, p) // "fail" finishes before "pending" can be claimed
	boom := errors.New("boom")
	var ran atomic.Bool
	jobs := []Job{
		intJob("pending", 1, func() (int, error) { ran.Store(true); return 0, nil }),
		intJob("fail", 2, func() (int, error) { return 0, boom }),
	}
	vals, err := p.RunAll(jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("RunAll = %v, want wrapped boom", err)
	}
	if vals != nil {
		t.Fatalf("failed batch returned results %v", vals)
	}
	if ran.Load() {
		t.Fatal("pending job ran after an earlier failure")
	}
}

// TestCancellationDrainsWorkers: a job failure cancels the rest of its
// batch mid-run on a wider pool. The jobs in flight see the failure and
// give up, no pending job is claimed, RunAll returns promptly with the
// failure, no worker goroutine leaks, and a skipped signature still
// computes later on the same pool.
func TestCancellationDrainsWorkers(t *testing.T) {
	p := New(Options{Workers: 2})
	boom := errors.New("boom")
	gaveUp := errors.New("gave up: the batch failed")
	started := make(chan struct{}, 16)
	failed := make(chan struct{})
	var ran atomic.Int64
	var jobs []Job
	for i := 0; i < 16; i++ {
		// Equal costs run in signature order: job-00 and job-01 are in
		// flight when the third runner claims job-02.
		jobs = append(jobs, intJob(fmt.Sprintf("job-%02d", i), 1, func() (int, error) {
			ran.Add(1)
			if i == 2 {
				<-started
				<-started
				close(failed)
				return 0, boom
			}
			started <- struct{}{}
			<-failed // an in-flight job gives up once the batch has failed
			return 0, gaveUp
		}))
	}
	before := runtime.NumGoroutine()
	errc := make(chan error, 1)
	go func() {
		_, err := p.RunAll(jobs)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, boom) && !errors.Is(err, gaveUp) {
			t.Fatalf("RunAll after a failure = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not return after a job failed")
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("%d jobs ran, want 3 (Workers+1): only those in flight when the batch failed", n)
	}
	// Workers must drain: goroutine count returns to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
	// A job the failure skipped must not poison its signature.
	v, err := p.Do(intJob("job-15", 1, func() (int, error) { return 5, nil }))
	if err != nil || v.(*intRec).N != 5 {
		t.Fatalf("skipped job run later = %v, %v", v, err)
	}
}

// TestRunAllNestedSharesPoolWithoutDeadlock: a job running on a
// Workers: 1 pool runs a batch of sub-jobs on the same pool. With the
// only slot taken, the job's own goroutine drains the sub-jobs.
func TestRunAllNestedSharesPoolWithoutDeadlock(t *testing.T) {
	p := New(Options{Workers: 1})
	var subRuns atomic.Int64
	outer := NewJob("outer", "outer", 1, func() (*intRec, error) {
		var subs []Job
		for i := 0; i < 5; i++ {
			subs = append(subs, intJob(fmt.Sprintf("sub-%d", i), 1, func() (int, error) {
				subRuns.Add(1)
				return 1, nil
			}))
		}
		vals, err := p.RunAll(subs)
		if err != nil {
			return nil, err
		}
		sum := 0
		for _, v := range vals {
			sum += v.(*intRec).N
		}
		return &intRec{N: sum}, nil
	})
	type outcome struct {
		vals []any
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		vals, err := p.RunAll([]Job{outer})
		done <- outcome{vals, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if got := o.vals[0].(*intRec).N; got != 5 {
			t.Fatalf("outer result = %d, want 5", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested batch deadlocked on a 1-worker pool")
	}
	if subRuns.Load() != 5 {
		t.Fatalf("ran %d sub-jobs, want 5", subRuns.Load())
	}
}

// TestNilResultJobFails: a job body that returns neither a result nor
// an error fails the job, and nothing is persisted for it (a stored JSON
// null would decode as a zero result on the next run).
func TestNilResultJobFails(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob("nil-result", "nil-result", 1, func() (*intRec, error) { return nil, nil })
	p := New(Options{Workers: 1, Store: store})
	if vals, err := p.RunAll([]Job{j}); err == nil {
		t.Fatalf("RunAll = %v with no error, want the job to fail", vals)
	}
	if st := p.Stats(); st.Computed != 0 || st.Errors != 1 {
		t.Fatalf("stats %+v, want 0 computed and 1 error", st)
	}
	if _, status := store.Lookup("nil-result"); status != StatusMiss {
		t.Fatalf("store lookup = %v, want StatusMiss: the failed job left an entry", status)
	}
}

func TestPanicCapturedAsError(t *testing.T) {
	p := New(Options{Workers: 1})
	j := intJob("panics", 1, func() (int, error) { panic("kaboom") })
	_, err := p.Do(j)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", err)
	}
}

func TestInvalidJobRejected(t *testing.T) {
	p := New(Options{Workers: 1})
	if _, err := p.Do(Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
}

// TestRunAllRunsJobsConcurrently proves the batch actually fans out:
// four jobs each block until all four have started, which can only
// complete if four workers run them at once. (This verifies scheduling
// concurrency without requiring multiple CPU cores.)
func TestRunAllRunsJobsConcurrently(t *testing.T) {
	p := New(Options{Workers: 4})
	var wait sync.WaitGroup
	wait.Add(4)
	var jobs []Job
	for i := 0; i < 4; i++ {
		sig := fmt.Sprintf("conc-%d", i)
		jobs = append(jobs, NewJob(sig, sig, 1, func() (*intRec, error) {
			wait.Done()
			wait.Wait() // blocks until all four jobs are in flight
			return &intRec{}, nil
		}))
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.RunAll(jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("jobs never ran concurrently (batch deadlocked)")
	}
}

func TestSeedIsStableAndSignatureDependent(t *testing.T) {
	if Seed("x") != Seed("x") {
		t.Fatal("Seed not deterministic")
	}
	if Seed("x") == Seed("y") {
		t.Fatal("distinct signatures share a seed")
	}
}

func TestRunAllEmptyAndNilLog(t *testing.T) {
	p := New(Options{})
	if _, err := p.RunAll(nil); err != nil {
		t.Fatal(err)
	}
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
	if _, err := p.LogWriter().Write([]byte("discarded")); err != nil {
		t.Fatal(err)
	}
}
