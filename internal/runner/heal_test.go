package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/fault"
)

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain failure"), false},
		{ErrTransient, true},
		{fmt.Errorf("io hiccup: %w", ErrTransient), true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("attempt timed out: %w", context.DeadlineExceeded), true},
		{context.Canceled, false},
		{fmt.Errorf("stopped: %w", context.Canceled), false},
		{transientFlagged{}, true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %t, want %t", tc.err, got, tc.want)
		}
	}
}

type transientFlagged struct{}

func (transientFlagged) Error() string   { return "flagged" }
func (transientFlagged) Transient() bool { return true }

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 4; attempt++ {
		a := RetryDelay(base, "job-sig", attempt)
		b := RetryDelay(base, "job-sig", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, a, b)
		}
		exp := base << uint(attempt-1)
		if a < exp/2 || a >= exp+exp/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, a, exp/2, exp+exp/2)
		}
	}
	if RetryDelay(base, "job-a", 1) == RetryDelay(base, "job-b", 1) {
		t.Fatal("distinct signatures produced identical jitter")
	}
}

// TestRetriesTransientThenSucceeds is the acceptance test: a job failing
// twice with a transient error then succeeding completes with
// Stats.Retries == 2 under seeded backoff.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	p := New(Options{Workers: 2, Retries: 3, RetryBackoff: time.Millisecond})
	var attempts atomic.Int64
	j := intJob("retry-then-ok", 1, func() (int, error) {
		if attempts.Add(1) <= 2 {
			return 0, fmt.Errorf("flaky backend: %w", ErrTransient)
		}
		return 42, nil
	})
	v, err := p.Do(j)
	if err != nil {
		t.Fatalf("job failed despite retries: %v", err)
	}
	if v.(*intRec).N != 42 {
		t.Fatalf("got %+v", v)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("job ran %d times, want 3", got)
	}
	st := p.Stats()
	if st.Retries != 2 {
		t.Fatalf("Stats.Retries = %d, want 2", st.Retries)
	}
	if st.Errors != 0 || st.Computed != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	p := New(Options{Workers: 1, Retries: 2, RetryBackoff: time.Millisecond})
	var attempts atomic.Int64
	j := intJob("always-transient", 1, func() (int, error) {
		attempts.Add(1)
		return 0, ErrTransient
	})
	if _, err := p.Do(j); !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient after exhaustion, got %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("job ran %d times, want 1 + 2 retries", got)
	}
	if st := p.Stats(); st.Retries != 2 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	p := New(Options{Workers: 1, Retries: 5, RetryBackoff: time.Millisecond})
	var attempts atomic.Int64
	j := intJob("hard-failure", 1, func() (int, error) {
		attempts.Add(1)
		return 0, errors.New("deterministic bug")
	})
	if _, err := p.Do(j); err == nil {
		t.Fatal("want error")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("non-transient error retried %d times", got-1)
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestQuarantineRecomputeOnce is the acceptance test for the silent
// store-corruption loop: a corrupt entry is quarantined and recomputed
// exactly once — the rewritten entry makes every later run a pure store
// hit with zero simulations.
func TestQuarantineRecomputeOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const sig = "cell|app=x|policy=y"
	runs := func(pool *Pool) (int64, Stats) {
		var computed atomic.Int64
		j := intJob(sig, 1, func() (int, error) {
			computed.Add(1)
			return 99, nil
		})
		if _, err := pool.Do(j); err != nil {
			t.Fatal(err)
		}
		return computed.Load(), pool.Stats()
	}

	// Cold run populates the store.
	if n, _ := runs(New(Options{Workers: 1, Store: st})); n != 1 {
		t.Fatalf("cold run computed %d times", n)
	}

	// Damage the entry on disk, deterministically.
	path := filepath.Join(dir, key(sig)+".json")
	if err := fault.ScribbleJSON(path); err != nil {
		t.Fatal(err)
	}

	// The corrupted run recomputes once, quarantines, rewrites.
	var logbuf strings.Builder
	n, stats := runs(New(Options{Workers: 1, Store: st, Log: &logbuf}))
	if n != 1 {
		t.Fatalf("corrupt run computed %d times, want 1", n)
	}
	if stats.Quarantined != 1 || stats.Recovered != 1 {
		t.Fatalf("corrupt-run stats: %+v", stats)
	}
	if !strings.Contains(logbuf.String(), "quarantined") {
		t.Fatalf("corruption not logged: %q", logbuf.String())
	}
	qpath := filepath.Join(st.QuarantineDir(), key(sig)+".json")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("damaged entry not preserved in quarantine: %v", err)
	}

	// Warm run: zero simulations, pure store hit — the loop is closed.
	n, stats = runs(New(Options{Workers: 1, Store: st}))
	if n != 0 {
		t.Fatalf("warm run after recovery computed %d times, want 0", n)
	}
	if stats.StoreHits != 1 || stats.Quarantined != 0 {
		t.Fatalf("warm-run stats: %+v", stats)
	}
}

// TestQuarantineUndecodablePayload: an entry whose framing is valid but
// whose payload does not decode into the job's type (the result type
// changed since it was written) is quarantined and recomputed once, and
// the rewritten entry serves the next run.
func TestQuarantineUndecodablePayload(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const sig = "cell|app=x|policy=drifted"
	if err := st.Put(sig, "a string where an intRec belongs"); err != nil {
		t.Fatal(err)
	}
	run := func() (int64, Stats) {
		t.Helper()
		var computed atomic.Int64
		pool := New(Options{Workers: 1, Store: st})
		v, err := pool.Do(intJob(sig, 1, func() (int, error) { computed.Add(1); return 7, nil }))
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*intRec).N; got != 7 {
			t.Fatalf("result %d, want 7", got)
		}
		return computed.Load(), pool.Stats()
	}
	if n, stats := run(); n != 1 || stats.Quarantined != 1 || stats.Recovered != 1 {
		t.Fatalf("drifted entry: computed %d times, stats %+v; want 1, 1 quarantined, 1 recovered", n, stats)
	}
	if _, err := os.Stat(filepath.Join(st.QuarantineDir(), key(sig)+".json")); err != nil {
		t.Fatalf("undecodable entry not preserved in quarantine: %v", err)
	}
	if n, stats := run(); n != 0 || stats.StoreHits != 1 || stats.Quarantined != 0 {
		t.Fatalf("rerun: computed %d times, stats %+v; want a clean store hit", n, stats)
	}
}

// TestStoreLookupStatuses covers the three lookup classifications and
// the quarantine side effects for each kind of damage.
func TestStoreLookupStatuses(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, s := st.Lookup("absent"); s != StatusMiss {
		t.Fatalf("absent entry: %v", s)
	}
	if err := st.Put("good", &payload{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if raw, s := st.Lookup("good"); s != StatusHit || len(raw) == 0 {
		t.Fatalf("valid entry: %v", s)
	}

	damage := []struct {
		name string
		hurt func(path string) error
	}{
		{"torn json", func(p string) error { return fault.ScribbleJSON(p) }},
		{"bit flips", func(p string) error { _, err := fault.CorruptFile(p, 3, 64); return err }},
		{"truncated", func(p string) error { _, err := fault.TruncateFile(p, 0.3); return err }},
		{"empty", func(p string) error { return os.WriteFile(p, nil, 0o644) }},
		{"null result", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			var e entry
			if err := json.Unmarshal(data, &e); err != nil {
				return err
			}
			e.Result = json.RawMessage("null")
			if data, err = json.Marshal(e); err != nil {
				return err
			}
			return os.WriteFile(p, data, 0o644)
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			sig := "victim-" + d.name
			if err := st.Put(sig, &payload{Name: d.name}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key(sig)+".json")
			if err := d.hurt(path); err != nil {
				t.Fatal(err)
			}
			if _, s := st.Lookup(sig); s != StatusCorrupt {
				t.Fatalf("damaged entry classified %v, want StatusCorrupt", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("damaged entry still shadows its slot")
			}
			if _, s := st.Lookup(sig); s != StatusMiss {
				t.Fatal("second lookup of quarantined entry is not a clean miss")
			}
			if err := st.Put(sig, &payload{Name: "fresh"}); err != nil {
				t.Fatal(err)
			}
			if _, s := st.Lookup(sig); s != StatusHit {
				t.Fatal("slot unusable after quarantine")
			}
		})
	}
}
