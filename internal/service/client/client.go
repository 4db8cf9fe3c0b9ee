// Package client is the Go client for the msserve scheduling service:
// it speaks the HTTP+JSON protocol of internal/service and decodes the
// typed responses, so in-process callers and remote callers share one
// wire format.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// RetryPolicy configures Do's retry loop for transient failures:
// transport errors and the retryable statuses (429 shed, 500 panic —
// the poisoned entry is quarantined, so a fresh attempt reconstructs —
// 502/503/504). Backoff is exponential with full jitter, floored by
// the server's Retry-After when one arrives; the context's deadline is
// always honoured — a sleep never outlives it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, the first included.
	// Default 4.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (attempt k sleeps a
	// uniform random duration in [0, BaseBackoff·2^k], capped at
	// MaxBackoff). Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps one sleep. Default 5s.
	MaxBackoff time.Duration
	// Budget, when positive, bounds the total wall time across all
	// attempts and backoffs: once spent, the last error returns
	// immediately. The context deadline applies regardless.
	Budget time.Duration
	// RefineDegraded, when set, treats a degraded 200 (Response.Degraded
	// — a proven bound, not the exact answer) as provisional: Do keeps
	// it as the best-so-far fallback and re-queries for the exact answer
	// once the response's retry_after_seconds hint (or the ordinary
	// backoff) elapses, within the same MaxAttempts/Budget/deadline.
	// Exhaustion returns the degraded answer with a nil error — the
	// caller always ends up with the best answer the budget bought.
	// Off (the default), a degraded 200 returns immediately.
	RefineDegraded bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	return p
}

// RetryStats counts the retry loop's activity, read with
// Client.RetryStats.
type RetryStats struct {
	// Attempts counts every request sent, first tries included.
	Attempts int64
	// Retries counts the re-sends: attempts beyond each Do's first.
	Retries int64
	// GaveUp counts Do calls that exhausted attempts or budget on a
	// retryable failure.
	GaveUp int64
	// Redirects counts attempts re-targeted to a sibling shard (shard
	// map armed): instead of sleeping out a 429's Retry-After or a dead
	// owner's backoff, the next attempt went straight to the next
	// member in ring order.
	Redirects int64
}

// Client talks to one msserve instance. The zero value is not usable;
// construct with New.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy

	// Shard routing (WithShards): the client computes each request's
	// owning shard on the same consistent-hash ring the fleet's routers
	// use and talks to it directly — no router hop — falling through
	// ring order when a shard sheds or is unreachable.
	shards *cluster.ShardMap

	attempts  atomic.Int64
	retries   atomic.Int64
	gaveUp    atomic.Int64
	redirects atomic.Int64
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for
// http.DefaultClient. The client does not retry; chain WithRetry for
// the resilient variant.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// WithRetry arms the retry policy (see RetryPolicy) and returns the
// same client for chaining. Call before sharing the client across
// goroutines.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	p = p.withDefaults()
	c.retry = &p
	return c
}

// WithShards arms client-side shard routing: solves go directly to the
// shard owning the request's platform fingerprint on the consistent-
// hash ring over the given members (host:port or http:// URLs — the
// strings must match the fleet's own shard map verbatim, vnodes
// included, or placements disagree). With a retry policy also armed, a
// 429 or transport error from the owner redirects the next attempt to
// the next member in ring order instead of sleeping: a sibling can
// answer immediately — colder, but correct — and the backoff sleep is
// paid only once a full cycle of the fleet has refused. Call before
// sharing the client across goroutines; returns the client for
// chaining.
func (c *Client) WithShards(shards []string, vnodes int) (*Client, error) {
	m, err := cluster.NewShardMap(shards, vnodes)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c.shards = m
	return c, nil
}

// RetryStats snapshots the retry loop's counters.
func (c *Client) RetryStats() RetryStats {
	return RetryStats{
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		GaveUp:    c.gaveUp.Load(),
		Redirects: c.redirects.Load(),
	}
}

// targets resolves one request's attempt order: with a shard map, the
// full fleet in ring order starting at the platform's owner; without
// one (or when the platform does not decode — the server will say why)
// just the configured base.
func (c *Client) targets(req *service.Request) []string {
	if c.shards == nil {
		return []string{c.base}
	}
	members, err := c.shards.Targets(req.Platform)
	if err != nil {
		return []string{c.base}
	}
	for i, m := range members {
		members[i] = c.shards.URL(m)
	}
	return members
}

// redirectable reports whether a failed attempt should move to the
// next shard rather than sleep: sheds (the owner is loaded, a sibling
// may not be) and transport failures (the owner is down). Server-side
// breakage (500/502/503/504) retries in place — the sibling would
// reconstruct a warm set for no reason when the owner's quarantine or
// restart resolves the fault.
func redirectable(status int) bool {
	return status == 0 || status == http.StatusTooManyRequests
}

// retryableStatus reports whether the status signals a transient
// server-side condition worth re-sending the identical request for.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, // shed: the server told us when to come back
		http.StatusInternalServerError, // panic: the poisoned entry was quarantined
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do posts one solve request and decodes the response. Non-2xx answers
// surface as errors carrying the server's message. With a retry policy
// armed (WithRetry), transient failures are retried with jittered
// exponential backoff, honouring the server's Retry-After and the
// context's deadline.
func (c *Client) Do(ctx context.Context, req *service.Request) (*service.Response, error) {
	// The compacted platform is at most its own length; the other
	// request fields fit in the 160 bytes beside it.
	payload, err := service.AppendRequest(make([]byte, 0, len(req.Platform)+160), req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	targets := c.targets(req)
	if c.retry == nil {
		c.attempts.Add(1)
		resp, _, _, err := c.doOnce(ctx, targets[0], payload)
		return resp, err
	}
	p := *c.retry
	start := time.Now()
	var lastErr error
	// ti walks the shard targets: 0 is the platform's owner, advanced to
	// the next ring member on redirectable failures.
	ti := 0
	// degraded is the best-so-far bounded-quality answer (RefineDegraded
	// only); whenever the loop stops without an exact answer, it wins
	// over whatever transient error stopped the refinement.
	var degraded *service.Response
	for attempt := 0; ; attempt++ {
		c.attempts.Add(1)
		if attempt > 0 {
			c.retries.Add(1)
		}
		resp, status, retryAfter, err := c.doOnce(ctx, targets[ti], payload)
		if err == nil {
			if !resp.Degraded || !p.RefineDegraded {
				return resp, nil
			}
			// Bounded-quality answer with refinement armed: keep it and
			// re-query for the exact answer once the server's own hint
			// (for sheds, the predicted backlog drain) elapses.
			degraded, lastErr = resp, nil
			if ra := time.Duration(resp.RetryAfterSeconds) * time.Second; ra > retryAfter {
				retryAfter = ra
			}
		} else {
			lastErr = err
			// Transport errors (status 0) are retryable: the request may
			// never have arrived. Everything else retries by status only.
			if status != 0 && !retryableStatus(status) {
				return settle(degraded, err)
			}
			if ctx.Err() != nil {
				return settle(degraded, lastErr)
			}
		}
		if attempt+1 >= p.MaxAttempts {
			break
		}
		// A shed or unreachable shard redirects to the next sibling in
		// ring order with no sleep at all — it may answer right now; the
		// backoff (and the owner's Retry-After) is paid only once a full
		// cycle of the fleet has refused.
		if err != nil && redirectable(status) && ti+1 < len(targets) {
			ti++
			c.redirects.Add(1)
			continue
		}
		ti = 0
		sleep := backoff(p, attempt, retryAfter)
		if p.Budget > 0 && time.Since(start)+sleep > p.Budget {
			break
		}
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(sleep).After(dl) {
			break
		}
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return settle(degraded, lastErr)
		}
	}
	if degraded != nil {
		return degraded, nil
	}
	c.gaveUp.Add(1)
	return nil, fmt.Errorf("client: giving up after retries: %w", lastErr)
}

// settle resolves a stopped refinement loop: a held degraded answer
// beats the error that stopped the loop — the caller asked for the best
// answer the budget could buy, and a proven bound is one.
func settle(degraded *service.Response, err error) (*service.Response, error) {
	if degraded != nil {
		return degraded, nil
	}
	return nil, err
}

// backoff is one attempt's sleep: full-jitter exponential, floored at
// the server's Retry-After when it is larger.
func backoff(p RetryPolicy, attempt int, retryAfter time.Duration) time.Duration {
	ceil := min(p.MaxBackoff, p.BaseBackoff<<uint(min(attempt, 20)))
	sleep := time.Duration(rand.Int63n(int64(ceil) + 1))
	return max(sleep, retryAfter)
}

// maxRetryAfter caps a parsed Retry-After hint: a misbehaving (or
// overflow-sized) header must not schedule a retry beyond any plausible
// drain time.
const maxRetryAfter = 24 * time.Hour

// parseRetryAfter parses a Retry-After header value per RFC 9110: a
// non-negative delta in seconds, or an HTTP-date taken relative to now.
// Absent, zero, negative, already-past and unparseable values are all
// 0 — retry on the ordinary backoff; values past maxRetryAfter clamp,
// so integer overflow (delta-seconds near 2^63 would wrap the duration
// negative) cannot produce an instant or a never retry.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs <= 0 {
			return 0
		}
		if secs > int64(maxRetryAfter/time.Second) {
			return maxRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		return min(max(t.Sub(now), 0), maxRetryAfter)
	}
	return 0
}

// doOnce sends one attempt to the given shard base URL. status is 0 on
// transport failure; retryAfter is the parsed Retry-After header (0
// when absent).
func (c *Client) doOnce(ctx context.Context, base string, payload []byte) (resp *service.Response, status int, retryAfter time.Duration, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	status = hresp.StatusCode
	retryAfter = parseRetryAfter(hresp.Header.Get("Retry-After"), time.Now())
	// Read one byte past the cap so truncation is an explicit error
	// rather than a baffling JSON decode failure on a cut-off body.
	const maxResponseBytes = 256 << 20
	body, err := io.ReadAll(io.LimitReader(hresp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, status, retryAfter, fmt.Errorf("client: reading response: %w", err)
	}
	if len(body) > maxResponseBytes {
		return nil, status, retryAfter, fmt.Errorf("client: response exceeds %d bytes; narrow the query or skip include_schedule", maxResponseBytes)
	}
	if status != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return nil, status, retryAfter, fmt.Errorf("client: server rejected the query: %s", eb.Error)
		}
		return nil, status, retryAfter, fmt.Errorf("client: server answered %s", hresp.Status)
	}
	out, err := service.DecodeResponse(body)
	if err != nil {
		return nil, status, retryAfter, fmt.Errorf("client: decoding response: %w", err)
	}
	return &out, status, retryAfter, nil
}
