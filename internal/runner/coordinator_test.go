package runner

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCoord is an in-memory coordinating backend: it delegates storage
// to a real filesystem Store and scripts Coordinate outcomes, so the
// pool's fleet-singleflight hook is testable without HTTP.
type fakeCoord struct {
	*Store
	mu       sync.Mutex
	publish  map[string][]byte // sig -> raw to hand back as "another worker's result"
	degraded bool              // Coordinate reports "coordination unavailable"
	grants   atomic.Int64
	dones    atomic.Int64
	releases atomic.Int64
}

type fakeLease struct{ c *fakeCoord }

func (l *fakeLease) Done()    { l.c.dones.Add(1) }
func (l *fakeLease) Release() { l.c.releases.Add(1) }

func (c *fakeCoord) Coordinate(ctx context.Context, sig string) ([]byte, Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	raw, ok := c.publish[sig]
	degraded := c.degraded
	c.mu.Unlock()
	if ok {
		return raw, nil, nil
	}
	if degraded {
		return nil, nil, nil
	}
	c.grants.Add(1)
	return nil, &fakeLease{c: c}, nil
}

func newFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeCoord{Store: st, publish: make(map[string][]byte)}
}

// TestCoordinatorPublishedResultSkipsCompute: a result published by
// another worker resolves the job without running it, counted as a
// fleet hit.
func TestCoordinatorPublishedResultSkipsCompute(t *testing.T) {
	c := newFakeCoord(t)
	raw, _ := json.Marshal(&payload{Name: "fleet", Count: 7})
	c.publish["sig-f"] = raw
	p := New(Options{Workers: 1, Store: c})
	var runs atomic.Int64
	v, err := p.Do(context.Background(), NewJob("sig-f", "f", 1, func(context.Context) (*payload, error) {
		runs.Add(1)
		return &payload{Name: "local"}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*payload); got.Name != "fleet" || got.Count != 7 {
		t.Fatalf("got %+v, want the fleet-published result", got)
	}
	if runs.Load() != 0 {
		t.Fatal("job ran despite a published fleet result")
	}
	st := p.Stats()
	if st.FleetHits != 1 || st.Computed != 0 {
		t.Fatalf("stats = %+v, want FleetHits=1 Computed=0", st)
	}
}

// TestCoordinatorLeaseResolvedDoneAfterPublish: a granted lease is
// resolved with Done exactly when the result was published to the store.
func TestCoordinatorLeaseResolvedDoneAfterPublish(t *testing.T) {
	c := newFakeCoord(t)
	p := New(Options{Workers: 1, Store: c})
	if _, err := p.Do(context.Background(), NewJob("sig-g", "g", 1, func(context.Context) (*payload, error) {
		return &payload{Name: "ok"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	if c.grants.Load() != 1 || c.dones.Load() != 1 || c.releases.Load() != 0 {
		t.Fatalf("lease lifecycle = grants %d dones %d releases %d, want 1/1/0",
			c.grants.Load(), c.dones.Load(), c.releases.Load())
	}
	if _, status := c.Lookup("sig-g"); status != StatusHit {
		t.Fatal("result not published")
	}
}

// TestCoordinatorLeaseReleasedOnFailure: a failing computation returns
// its lease to the queue instead of completing it.
func TestCoordinatorLeaseReleasedOnFailure(t *testing.T) {
	c := newFakeCoord(t)
	p := New(Options{Workers: 1, Store: c})
	boom := context.DeadlineExceeded // any non-nil error works; transient avoids retry noise via Retries=0
	if _, err := p.Do(context.Background(), NewJob("sig-h", "h", 1, func(context.Context) (*payload, error) {
		return nil, boom
	})); err == nil {
		t.Fatal("failing job reported success")
	}
	if c.dones.Load() != 0 || c.releases.Load() != 1 {
		t.Fatalf("lease lifecycle = dones %d releases %d, want 0/1", c.dones.Load(), c.releases.Load())
	}
}

// TestCoordinatorDegradedComputesLocally: coordination unavailability
// must not fail or dedup the job — it computes locally.
func TestCoordinatorDegradedComputesLocally(t *testing.T) {
	c := newFakeCoord(t)
	c.degraded = true
	p := New(Options{Workers: 1, Store: c})
	var runs atomic.Int64
	if _, err := p.Do(context.Background(), NewJob("sig-i", "i", 1, func(context.Context) (*payload, error) {
		runs.Add(1)
		return &payload{Name: "local"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatal("degraded coordination did not compute locally")
	}
	if st := p.Stats(); st.FleetHits != 0 || st.Computed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoordinatorSkipStoreBypassesCoordination: SkipStore jobs have
// process-unique signatures; leasing them fleet-wide is meaningless and
// must not happen.
func TestCoordinatorSkipStoreBypassesCoordination(t *testing.T) {
	c := newFakeCoord(t)
	p := New(Options{Workers: 1, Store: c})
	j := NewJob("sig-skip", "skip", 1, func(context.Context) (*payload, error) {
		return &payload{}, nil
	})
	j.SkipStore = true
	if _, err := p.Do(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if c.grants.Load() != 0 {
		t.Fatal("SkipStore job was coordinated")
	}
}

// TestTypedNilStoreBehavesAsNoStore: a typed-nil *Store passed through
// the StoreBackend interface must disable persistence, not panic.
func TestTypedNilStoreBehavesAsNoStore(t *testing.T) {
	var st *Store
	p := New(Options{Workers: 1, Store: st})
	if p.Store() != nil {
		t.Fatal("typed-nil store survived normalization")
	}
	if _, err := p.Do(context.Background(), NewJob("sig-n", "n", 1, func(context.Context) (*payload, error) {
		return &payload{}, nil
	})); err != nil {
		t.Fatal(err)
	}
}

// TestRetryBackoffHonorsCancellationMidSleep: cancelling a sweep during
// a retry backoff sleep must drain promptly — the backoff here is far
// longer than the whole test budget, so a time.Sleep that outlives the
// cancellation would hang the drain visibly.
func TestRetryBackoffHonorsCancellationMidSleep(t *testing.T) {
	p := New(Options{Workers: 2, Retries: 5, RetryBackoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan struct{})
	var once sync.Once
	j := NewJob("cancel-mid-backoff", "cmb", 1, func(context.Context) (*payload, error) {
		once.Do(func() { close(failed) })
		return nil, ErrTransient
	})
	go func() {
		<-failed // first attempt failed: the pool is now in backoff sleep
		cancel()
	}()
	start := time.Now()
	_, err := p.RunAll(ctx, []Job{j})
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled sweep drained in %v; backoff sleep outlived cancellation", waited)
	}
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}
