package rippled

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/runner"
)

// ClientOptions configures a Client.
type ClientOptions struct {
	// HTTPClient overrides the transport; nil uses a client with a 10s
	// per-request timeout.
	HTTPClient *http.Client
	// Retries bounds per-operation re-sends of transiently failing
	// requests (network errors, 5xx); < 0 disables, 0 uses the default 2.
	Retries int
	// RetryBackoff is the base delay before the first resend, doubled
	// per attempt with signature-seeded jitter; <= 0 uses 25ms.
	RetryBackoff time.Duration
	// LeaseTTL is the compute-lease duration requested from the server
	// (which clamps it to its own bound); <= 0 uses 15s.
	LeaseTTL time.Duration
	// PollInterval paces store polling while another worker holds the
	// lease; <= 0 uses 50ms.
	PollInterval time.Duration
	// OutageCooldown is how long the client assumes the server is down
	// after a network failure, skipping requests so a dead rippled costs
	// one timeout — not one per job; <= 0 uses 2s.
	OutageCooldown time.Duration
	// Owner identifies this worker in lease state (default host#pid).
	Owner string
	// Log receives degradation notices (nil silences them).
	Log io.Writer
}

// Client speaks the rippled wire protocol. It implements
// runner.StoreBackend — so a pool persists through a shared rippled
// exactly as it would through a local directory — and
// runner.Coordinator, extending the pool's singleflight to fleet scope.
//
// Failure policy: requests that fail transiently are retried with
// deterministic signature-seeded backoff; once the server is deemed
// unreachable the outage breaker opens and every operation degrades
// instantly (Lookup reads as a miss, Coordinate waives coordination), so
// a sweep survives a dead coordinator at local-compute speed rather
// than failing or timing out per job.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	ttl     time.Duration
	poll    time.Duration
	cool    time.Duration
	owner   string
	log     io.Writer
	logMu   sync.Mutex

	// downUntil is the outage breaker: a unix-nano deadline before which
	// every request short-circuits.
	downUntil atomic.Int64
}

var (
	_ runner.StoreBackend = (*Client)(nil)
	_ runner.Coordinator  = (*Client)(nil)
)

// NewClient builds a client for a rippled base URL (e.g.
// "http://127.0.0.1:8344").
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("rippled: invalid server URL %q", baseURL)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("rippled: unsupported scheme %q (want http or https)", u.Scheme)
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	owner := opts.Owner
	if owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		owner = fmt.Sprintf("%s#%d", host, os.Getpid())
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      hc,
		retries: retries,
		backoff: opts.RetryBackoff,
		ttl:     opts.LeaseTTL,
		poll:    opts.PollInterval,
		cool:    opts.OutageCooldown,
		owner:   owner,
		log:     opts.Log,
	}
	if c.backoff <= 0 {
		c.backoff = 25 * time.Millisecond
	}
	if c.ttl <= 0 {
		c.ttl = 15 * time.Second
	}
	if c.poll <= 0 {
		c.poll = 50 * time.Millisecond
	}
	if c.cool <= 0 {
		c.cool = 2 * time.Second
	}
	return c, nil
}

// OpenStore returns the result store a -store/-cachedir pair names: a
// client of the rippled server at storeURL (log receives its
// degradation notices), else the local directory store at cacheDir,
// else nil — no persistence. storeURL wins when both are set; the CLIs
// reject that combination before calling.
func OpenStore(storeURL, cacheDir string, log io.Writer) (runner.StoreBackend, error) {
	switch {
	case storeURL != "":
		cl, err := NewClient(storeURL, ClientOptions{Log: log})
		if err != nil {
			return nil, err
		}
		return cl, nil
	case cacheDir != "":
		st, err := runner.OpenStore(cacheDir)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, nil
}

// Owner returns the identity this client leases under.
func (c *Client) Owner() string { return c.owner }

func (c *Client) logf(format string, args ...any) {
	if c.log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.log, format+"\n", args...)
}

// --- outage breaker ----------------------------------------------------

func (c *Client) offline() bool {
	return time.Now().UnixNano() < c.downUntil.Load()
}

// noteFailure opens the breaker on network-level failures (the server is
// unreachable); protocol-level errors leave it closed — the server is up
// and the next request may well succeed.
func (c *Client) noteFailure(err error) {
	var uerr *url.Error
	if !errors.As(err, &uerr) {
		return
	}
	now := time.Now()
	if prev := c.downUntil.Swap(now.Add(c.cool).UnixNano()); prev < now.UnixNano() {
		c.logf("rippled: %s unreachable (%v); degrading to local compute", c.base, err)
	}
}

// --- transport helpers -------------------------------------------------

// statusError is a non-2xx reply; 5xx classifies as transient (and
// therefore retries), 4xx as permanent.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("rippled: server returned %d: %s", e.code, strings.TrimSpace(e.body))
}

func (e *statusError) Transient() bool { return e.code >= 500 }

// transientErr reports whether an operation error is worth re-sending:
// network failures and 5xx replies, per runner's Transient contract.
func transientErr(err error) bool {
	var uerr *url.Error
	if errors.As(err, &uerr) {
		return true
	}
	return runner.Transient(err)
}

// send issues one request and normalizes non-2xx replies into
// statusError. okCodes lists statuses the caller handles itself.
func (c *Client) send(req *http.Request, okCodes ...int) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	for _, code := range okCodes {
		if resp.StatusCode == code {
			return resp, nil
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	return nil, &statusError{code: resp.StatusCode, body: string(body)}
}

// retrying runs op with the client's bounded transient-retry policy.
// Backoff sleeps are signature-seeded (deterministic per sig and
// attempt) and cut short when ctx ends.
func (c *Client) retrying(ctx context.Context, sig string, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !transientErr(err) || attempt >= c.retries || ctx.Err() != nil {
			return err
		}
		t := time.NewTimer(runner.RetryDelay(c.backoff, sig, attempt+1))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

func (c *Client) entryURL(sig string) string {
	return c.base + storePrefix + runner.Key(sig)
}

// --- StoreBackend ------------------------------------------------------

// Lookup fetches sig's entry. Network failure — after retries — reads as
// a miss (the pool then computes locally); a 410 reads as StatusCorrupt,
// mirroring the local store's quarantine accounting.
func (c *Client) Lookup(sig string) (raw []byte, st runner.Status) {
	if c.offline() {
		return nil, runner.StatusMiss
	}
	err := c.retrying(context.Background(), sig, func() error {
		req, rerr := http.NewRequest(http.MethodGet, c.entryURL(sig), nil)
		if rerr != nil {
			return rerr
		}
		req.Header.Set(headerSig, sig)
		resp, rerr := c.send(req, http.StatusOK, http.StatusNotFound, http.StatusGone)
		if rerr != nil {
			return rerr
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNotFound:
			raw, st = nil, runner.StatusMiss
			return nil
		case http.StatusGone:
			raw, st = nil, runner.StatusCorrupt
			return nil
		}
		body, rerr := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxEntryBytes))
		if rerr != nil {
			return rerr
		}
		// SHA validation: a payload that does not hash to its ETag was
		// damaged in flight; retry rather than decode garbage.
		if etag := resp.Header.Get("ETag"); etag != "" && etag != etagOf(body) {
			return fmt.Errorf("rippled: entry %s failed ETag validation: %w", runner.Key(sig), runner.ErrTransient)
		}
		raw, st = body, runner.StatusHit
		return nil
	})
	if err != nil {
		c.noteFailure(err)
		return nil, runner.StatusMiss
	}
	return raw, st
}

// Put publishes v under sig. The returned error is Transient-classified
// when the failure was; the pool treats any Put failure as a warning,
// so an outage costs persistence, never the sweep.
func (c *Client) Put(sig string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rippled: encode result: %w", err)
	}
	if c.offline() {
		return fmt.Errorf("rippled: %s unreachable (breaker open): %w", c.base, runner.ErrTransient)
	}
	sum := sha256.Sum256(raw)
	err = c.retrying(context.Background(), sig, func() error {
		req, rerr := http.NewRequest(http.MethodPut, c.entryURL(sig), bytes.NewReader(raw))
		if rerr != nil {
			return rerr
		}
		req.Header.Set(headerSig, sig)
		req.Header.Set(headerSHA, hex.EncodeToString(sum[:]))
		req.Header.Set("Content-Type", "application/json")
		resp, rerr := c.send(req, http.StatusNoContent)
		if rerr != nil {
			return rerr
		}
		resp.Body.Close()
		return nil
	})
	if err != nil {
		c.noteFailure(err)
		return fmt.Errorf("rippled: put %s: %w", runner.Key(sig), err)
	}
	return nil
}

// Quarantine moves sig's entry aside on the server, returning the
// server-side quarantine path.
func (c *Client) Quarantine(sig string) (string, error) {
	if c.offline() {
		return "", fmt.Errorf("rippled: %s unreachable (breaker open): %w", c.base, runner.ErrTransient)
	}
	var reply quarantineReply
	err := c.retrying(context.Background(), sig, func() error {
		req, rerr := http.NewRequest(http.MethodPost, c.entryURL(sig)+"/quarantine", nil)
		if rerr != nil {
			return rerr
		}
		req.Header.Set(headerSig, sig)
		resp, rerr := c.send(req, http.StatusOK)
		if rerr != nil {
			return rerr
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&reply)
	})
	if err != nil {
		c.noteFailure(err)
		return "", fmt.Errorf("rippled: quarantine %s: %w", runner.Key(sig), err)
	}
	return reply.Path, nil
}

// --- Coordinator -------------------------------------------------------

// leaseCall posts one lease operation.
func (c *Client) leaseCall(ctx context.Context, path string, body leaseRequest) (leaseResponse, error) {
	var reply leaseResponse
	err := c.retrying(ctx, body.Sig, func() error {
		raw, merr := json.Marshal(body)
		if merr != nil {
			return merr
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		resp, rerr := c.send(req, http.StatusOK, http.StatusConflict)
		if rerr != nil {
			return rerr
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&reply)
	})
	return reply, err
}

// Coordinate implements runner.Coordinator: it resolves a store miss
// fleet-wide. The caller either receives a published result another
// worker computed while we waited, or wins the compute lease (kept alive
// by background heartbeat renewal until Done/Release). Coordination
// failure returns (nil, nil, nil): compute locally, correctness intact.
func (c *Client) Coordinate(ctx context.Context, sig string) ([]byte, runner.Lease, error) {
	if c.offline() {
		return nil, nil, nil
	}
	for {
		resp, err := c.leaseCall(ctx, acquirePath, leaseRequest{Sig: sig, Owner: c.owner, TTLMillis: c.ttl.Milliseconds()})
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			c.noteFailure(err)
			return nil, nil, nil
		}
		switch resp.State {
		case stateGranted:
			return nil, c.newLease(sig, resp.Token), nil
		case stateDone, stateBusy:
			// Either the result is already published, or someone else is
			// computing it: poll the store. A done-but-missing entry (it
			// was quarantined between acquire and fetch) loops back to
			// acquire, which grants a recompute lease.
			if raw, st := c.Lookup(sig); st == runner.StatusHit {
				return raw, nil, nil
			}
			if c.offline() {
				return nil, nil, nil
			}
		default:
			c.logf("rippled: unknown lease state %q for %s; computing locally", resp.State, runner.Key(sig))
			return nil, nil, nil
		}
		wait := c.poll
		if ra := time.Duration(resp.RetryAfterMillis) * time.Millisecond; ra > 0 && ra < wait {
			wait = ra
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, nil, ctx.Err()
		case <-t.C:
		}
	}
}

// clientLease keeps one granted lease alive until the computation
// resolves it.
type clientLease struct {
	c          *Client
	sig, token string
	stop       chan struct{}
	hb         sync.WaitGroup
	once       sync.Once
}

func (c *Client) newLease(sig, token string) *clientLease {
	l := &clientLease{c: c, sig: sig, token: token, stop: make(chan struct{})}
	l.hb.Add(1)
	go l.heartbeat()
	return l
}

// heartbeat renews at a third of the TTL, so two renewals can fail
// before the lease expires. Losing the lease (server restarted, lease
// stolen after a stall) stops renewal but never the computation: the
// worst case is a duplicate compute, never a wrong result.
func (l *clientLease) heartbeat() {
	defer l.hb.Done()
	interval := l.c.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			resp, err := l.c.leaseCall(context.Background(), renewPath,
				leaseRequest{Sig: l.sig, Token: l.token, TTLMillis: l.c.ttl.Milliseconds()})
			if err != nil || resp.State != stateGranted {
				l.c.logf("rippled: lease renewal for %s failed (state=%q err=%v); continuing uncovered",
					runner.Key(l.sig), resp.State, err)
				return
			}
		}
	}
}

// Done resolves a lease whose result was published: the server already
// freed the lease when the PUT landed, so only the heartbeat stops.
func (l *clientLease) Done() { l.finish(false) }

// Release returns the signature to the queue without a result.
func (l *clientLease) Release() { l.finish(true) }

func (l *clientLease) finish(release bool) {
	l.once.Do(func() {
		close(l.stop)
		l.hb.Wait()
		if release && !l.c.offline() {
			// Best-effort: an unreachable server expires the lease by TTL.
			l.c.leaseCall(context.Background(), releasePath, leaseRequest{Sig: l.sig, Token: l.token})
		}
	})
}
