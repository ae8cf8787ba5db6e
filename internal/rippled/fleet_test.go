package rippled

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/runner"
)

// fleetJobs builds the K-signature job set every worker in these tests
// drains: same signatures everywhere, so the fleet's single-flight is
// what decides who computes. computed counts executions across ALL
// workers; delay stretches each computation so workers overlap.
func fleetJobs(k int, computed *atomic.Int64, delay time.Duration) []runner.Job {
	jobs := make([]runner.Job, 0, k)
	for i := 0; i < k; i++ {
		i := i
		sig := fmt.Sprintf("fleet|cell=%d", i)
		jobs = append(jobs, runner.NewJob(sig, sig, 1, func(context.Context) (*result, error) {
			computed.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
			return &result{Name: "cell", N: i * 11}, nil
		}))
	}
	return jobs
}

// TestFleetSingleFlightStress is the acceptance test for fleet-scope
// deduplication: many worker pools — separate Pool instances, as
// separate processes would be — hammer the same K signatures through
// one rippled. Each signature must be computed exactly once fleet-wide.
func TestFleetSingleFlightStress(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerOptions{LeaseTTL: 300 * time.Millisecond})
	const workers, k = 6, 5
	var computed atomic.Int64

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		c := newTestClient(t, ts.URL, fastOptions())
		pool := runner.New(runner.Options{Workers: 4, Store: c})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pool.RunAll(context.Background(), fleetJobs(k, &computed, 10*time.Millisecond))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := computed.Load(); got != k {
		t.Fatalf("fleet computed %d times for %d signatures; duplicates slipped through single-flight", got, k)
	}
}

// TestFleetMatchesSerialByteForByte: two worker pools draining one
// sweep through one rippled must leave the store byte-identical to a
// serial local run — signatures exclude worker count and backend, and
// the server persists the client's exact payload bytes.
func TestFleetMatchesSerialByteForByte(t *testing.T) {
	const k = 6

	// Serial baseline: one pool, one worker, local directory.
	serialDir := t.TempDir()
	serialStore, err := runner.OpenStore(serialDir)
	if err != nil {
		t.Fatal(err)
	}
	var serialComputed atomic.Int64
	serial := runner.New(runner.Options{Workers: 1, Store: serialStore})
	if _, err := serial.RunAll(context.Background(), fleetJobs(k, &serialComputed, 0)); err != nil {
		t.Fatal(err)
	}

	// Fleet run: two pools racing through one rippled.
	_, ts, fleetDir := newTestServer(t, ServerOptions{LeaseTTL: 300 * time.Millisecond})
	var fleetComputed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		c := newTestClient(t, ts.URL, fastOptions())
		pool := runner.New(runner.Options{Workers: 3, Store: c})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.RunAll(context.Background(), fleetJobs(k, &fleetComputed, 5*time.Millisecond)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := fleetComputed.Load(); got != k {
		t.Fatalf("fleet computed %d times for %d signatures", got, k)
	}

	// Every entry the fleet published must be byte-identical to the
	// serial run's — same keys, same bytes.
	for i := 0; i < k; i++ {
		name := runner.Key(fmt.Sprintf("fleet|cell=%d", i)) + ".json"
		want, err := os.ReadFile(filepath.Join(serialDir, name))
		if err != nil {
			t.Fatalf("serial entry %d: %v", i, err)
		}
		got, err := os.ReadFile(filepath.Join(fleetDir, name))
		if err != nil {
			t.Fatalf("fleet entry %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("entry %d differs between serial and fleet runs:\n%s\nvs\n%s", i, want, got)
		}
	}
}

// TestFleetWarmPoolComputesNothing: a pool started after the fleet
// populated the store performs zero computations — every job is a store
// or fleet hit.
func TestFleetWarmPoolComputesNothing(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerOptions{})
	const k = 4
	var cold atomic.Int64
	c1 := newTestClient(t, ts.URL, fastOptions())
	p1 := runner.New(runner.Options{Workers: 2, Store: c1})
	if _, err := p1.RunAll(context.Background(), fleetJobs(k, &cold, 0)); err != nil {
		t.Fatal(err)
	}
	if cold.Load() != k {
		t.Fatalf("cold run computed %d, want %d", cold.Load(), k)
	}

	var warm atomic.Int64
	c2 := newTestClient(t, ts.URL, fastOptions())
	p2 := runner.New(runner.Options{Workers: 2, Store: c2})
	if _, err := p2.RunAll(context.Background(), fleetJobs(k, &warm, 0)); err != nil {
		t.Fatal(err)
	}
	if warm.Load() != 0 {
		t.Fatalf("warm run computed %d times, want 0", warm.Load())
	}
	if st := p2.Stats(); st.StoreHits != k || st.Computed != 0 {
		t.Fatalf("warm pool stats = %+v", st)
	}
}

// TestFleetOutageMidSweepDegradesToLocal is the acceptance test for
// coordinator loss: rippled dies partway through a sweep and the sweep
// must still complete — every remaining signature computes locally,
// nothing fails, nothing hangs.
func TestFleetOutageMidSweepDegradesToLocal(t *testing.T) {
	dir := t.TempDir()
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{})
	ts := httptest.NewServer(srv)
	killed := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			// CloseClientConnections first so in-flight and idle conns die
			// immediately; Close in a goroutine since it waits for stragglers.
			ts.CloseClientConnections()
			go ts.Close()
			close(killed)
		})
	}
	defer kill()

	opts := fastOptions()
	opts.HTTPClient = &http.Client{Timeout: 500 * time.Millisecond}
	c := newTestClient(t, ts.URL, opts)
	pool := runner.New(runner.Options{Workers: 2, Store: c})

	const k = 12
	var computed atomic.Int64
	jobs := make([]runner.Job, 0, k)
	for i := 0; i < k; i++ {
		i := i
		sig := fmt.Sprintf("outage|cell=%d", i)
		jobs = append(jobs, runner.NewJob(sig, sig, 1, func(context.Context) (*result, error) {
			// The third computation murders the coordinator mid-sweep.
			if computed.Add(1) == 3 {
				kill()
			}
			return &result{Name: "cell", N: i}, nil
		}))
	}

	done := make(chan error, 1)
	go func() {
		_, err := pool.RunAll(context.Background(), jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep failed after coordinator death: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep hung after coordinator death")
	}
	<-killed // the kill really happened mid-sweep
	if got := computed.Load(); got != k {
		t.Fatalf("computed %d of %d signatures (no duplicates expected within one pool)", got, k)
	}
	if st := pool.Stats(); st.Errors != 0 {
		t.Fatalf("pool stats after outage = %+v, want zero errors", st)
	}
}
