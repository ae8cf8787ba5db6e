package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupNestedSharesPoolWithoutDeadlock is the shape that motivated
// the Group API: a job running on the pool's only worker fans out
// sub-jobs to the same pool. Submission must not block and Wait must
// drain the sub-jobs inline on the held slot.
func TestGroupNestedSharesPoolWithoutDeadlock(t *testing.T) {
	p := New(Options{Workers: 1})
	var subRuns atomic.Int64
	outer := NewJob("outer", "outer", 1, func(ctx context.Context) (*intRec, error) {
		g := p.NewGroup(ctx)
		var futs []*Future
		for i := 0; i < 5; i++ {
			sig := fmt.Sprintf("sub-%d", i)
			futs = append(futs, g.Submit(NewJob(sig, sig, 1, func(context.Context) (*intRec, error) {
				subRuns.Add(1)
				return &intRec{N: 1}, nil
			})))
		}
		if err := g.Wait(); err != nil {
			return nil, err
		}
		sum := 0
		for _, f := range futs {
			v, err := f.Get()
			if err != nil {
				return nil, err
			}
			sum += v.(*intRec).N
		}
		return &intRec{N: sum}, nil
	})
	done := make(chan error, 1)
	go func() { done <- p.RunAll(context.Background(), []Job{outer}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested group deadlocked on a 1-worker pool")
	}
	if subRuns.Load() != 5 {
		t.Fatalf("ran %d sub-jobs, want 5", subRuns.Load())
	}
}

// TestGroupFansOutConcurrently proves Group workers actually run in
// parallel: four sub-jobs each block until all four are in flight.
func TestGroupFansOutConcurrently(t *testing.T) {
	p := New(Options{Workers: 4})
	g := p.NewGroup(context.Background())
	var wait sync.WaitGroup
	wait.Add(4)
	for i := 0; i < 4; i++ {
		sig := fmt.Sprintf("conc-sub-%d", i)
		g.Submit(NewJob(sig, sig, 1, func(context.Context) (*intRec, error) {
			wait.Done()
			wait.Wait()
			return &intRec{}, nil
		}))
	}
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("group sub-jobs never ran concurrently")
	}
}

// TestGroupErrorSkipsPending: the first failure stops the queue; pending
// futures resolve as skipped, and Wait returns the original error.
func TestGroupErrorSkipsPending(t *testing.T) {
	p := New(Options{Workers: 1})
	g := p.NewGroup(context.Background())
	boom := errors.New("boom")
	ff := g.Submit(NewJob("fail", "fail", 1, func(context.Context) (*intRec, error) {
		return nil, boom
	}))
	var ran atomic.Bool
	fp := g.Submit(NewJob("pending", "pending", 1, func(context.Context) (*intRec, error) {
		ran.Store(true)
		return &intRec{}, nil
	}))
	// The first Submit spawned the pool's one worker, which claims "fail"
	// (the oldest queued job). Wait drains the queue inline on this
	// goroutine, so calling it while that worker still runs "fail" would
	// start "pending" concurrently, before any failure exists to stop it.
	// Let the failure land first.
	<-ff.ready
	err := g.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want wrapped boom", err)
	}
	if _, err := ff.Get(); !errors.Is(err, boom) {
		t.Fatalf("failed future Get = %v", err)
	}
	if _, err := fp.Get(); !errors.Is(err, ErrSkipped) {
		t.Fatalf("pending future Get = %v, want ErrSkipped", err)
	}
	if ran.Load() {
		t.Fatal("pending job ran after an earlier failure")
	}
}

// TestFutureGetRunsInline: Get on an unclaimed future executes the job
// on the caller, even with zero free workers.
func TestFutureGetRunsInline(t *testing.T) {
	p := New(Options{Workers: 1})
	// Occupy the only slot so no group worker can spawn.
	block := make(chan struct{})
	release := make(chan struct{})
	go func() {
		p.sem <- struct{}{}
		close(block)
		<-release
		<-p.sem
	}()
	<-block
	defer close(release)

	g := p.NewGroup(context.Background())
	f := g.Submit(NewJob("inline", "inline", 1, func(context.Context) (*intRec, error) {
		return &intRec{N: 7}, nil
	}))
	v, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(*intRec).N != 7 {
		t.Fatalf("got %d, want 7", v.(*intRec).N)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCancellationSkips: canceling the context resolves pending
// futures as skipped and Wait surfaces the context error.
func TestGroupCancellationSkips(t *testing.T) {
	p := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := p.NewGroup(ctx)
	f := g.Submit(NewJob("never", "never", 1, func(context.Context) (*intRec, error) {
		return &intRec{}, nil
	}))
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if _, err := f.Get(); !errors.Is(err, ErrSkipped) && !errors.Is(err, context.Canceled) {
		t.Fatalf("Get = %v, want skip/cancel", err)
	}
}

// TestSkipStoreBypassesPersistence: a SkipStore job neither reads nor
// writes the on-disk store, while in-process memoization still applies.
func TestSkipStoreBypassesPersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Workers: 1, Store: store})
	var runs atomic.Int64
	j := NewJob("volatile", "volatile", 1, func(context.Context) (*intRec, error) {
		runs.Add(1)
		return &intRec{N: 3}, nil
	})
	j.SkipStore = true
	if _, err := p.Do(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, status := store.Lookup("volatile"); status != StatusMiss {
		t.Fatal("SkipStore job was persisted")
	}
	// Same signature, same process: memoized, not recomputed.
	if _, err := p.Do(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times, want 1 (memoized)", runs.Load())
	}
	// A fresh pool recomputes: nothing was persisted.
	p2 := New(Options{Workers: 1, Store: store})
	if _, err := p2.Do(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("job ran %d times across pools, want 2 (store bypassed)", runs.Load())
	}
}
