package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// DefaultTimeout bounds every request of a Client built with a nil
// *http.Client. A daemon client must never hang forever on a dead or
// wedged peer — the self-healing loops (heartbeat, auto-pull) depend on
// failure being a bounded-time outcome.
const DefaultTimeout = 10 * time.Second

// Client talks to one gsumd daemon. It ingests through NewPusher's
// /v1/stream session; the JSON /v1/ingest is curl's door and has no
// verb. context.Context is first-class: every verb is ctx-first (cancel
// a push session, bound a pull round, tie the whole CLI to SIGINT); only
// Estimate and Snapshot keep a
// Background() form. Every request is additionally bounded: a nil
// http.Client gets DefaultTimeout, and multi-peer operations
// (PullFromContext) carry a per-request deadline so one dead worker
// costs at most one timeout, not the whole loop.
type Client struct {
	base string
	hc   *http.Client
	// timeout is the per-request deadline used by the pull loop:
	// hc.Timeout when set, DefaultTimeout otherwise (so even a caller
	// supplied timeout-less client cannot hang on one peer).
	timeout time.Duration
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7600"). httpClient nil means a default client with
// DefaultTimeout; pass your own to tune it.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	t := httpClient.Timeout
	if t <= 0 {
		t = DefaultTimeout
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient, timeout: t}
}

// Base returns the daemon base URL this client points at.
func (c *Client) Base() string { return c.base }

// drainClose consumes the remainder of a response body (bounded) before
// closing it. An undrained body makes net/http abandon the underlying
// TCP connection instead of returning it to the keep-alive pool, which
// on the hot push path would mean a fresh connection per batch.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	_ = body.Close()
}

// decodeError surfaces the daemon's JSON error body.
func decodeError(resp *http.Response) error {
	defer drainClose(resp.Body)
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("daemon: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("daemon: %s", resp.Status)
}

// do issues one request with the given context; callers own the
// response body.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.hc.Do(req)
}

// postOK posts body and expects a 200, draining the successful response
// so the connection is reused.
func (c *Client) postOK(ctx context.Context, path, contentType string, body []byte) error {
	resp, err := c.do(ctx, http.MethodPost, path, contentType, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	drainClose(resp.Body)
	return nil
}

// AdvanceContext moves a window backend's tick clock to tick via
// /v1/advance and returns the daemon's resulting clock (past ticks are
// a no-op, so the returned clock may be ahead of the argument).
func (c *Client) AdvanceContext(ctx context.Context, tick uint64) (uint64, error) {
	body, err := json.Marshal(AdvanceRequest{Tick: tick})
	if err != nil {
		return 0, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/advance", "application/json", body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, decodeError(resp)
	}
	defer drainClose(resp.Body)
	var out struct {
		Tick uint64 `json:"tick"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&out); err != nil {
		return 0, err
	}
	return out.Tick, nil
}

// SnapshotContext fetches the daemon's serialized sketch state.
func (c *Client) SnapshotContext(ctx context.Context) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/snapshot", "", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer drainClose(resp.Body)
	// Read one byte past the cap so an oversize snapshot is detected
	// rather than silently truncated into a corrupt partial payload.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("daemon: snapshot exceeds %d bytes", maxBodyBytes)
	}
	return data, nil
}

// Snapshot is SnapshotContext with a background context. It stays
// beside the ctx-first verbs only while the repository benchmark's
// harness (bench/) calls it.
func (c *Client) Snapshot() ([]byte, error) {
	return c.SnapshotContext(context.Background())
}

// MergeContext ships a serialized shard sketch to /v1/merge.
func (c *Client) MergeContext(ctx context.Context, snapshot []byte) error {
	return c.postOK(ctx, "/v1/merge", "application/octet-stream", snapshot)
}

// CheckSpecContext posts a Spec fingerprint to the daemon's /v1/config
// handshake. A nil error means the daemon was built from a Spec with
// the same fingerprint; a mismatch surfaces the daemon's 409 Conflict.
func (c *Client) CheckSpecContext(ctx context.Context, fingerprint uint64) error {
	body, err := json.Marshal(CheckRequest{Fingerprint: fingerprint})
	if err != nil {
		return err
	}
	return c.postOK(ctx, "/v1/config", "application/json", body)
}

// RegisterContext announces a worker's base URL to the coordinator this
// client points at (POST /v1/register). The coordinator's heartbeat
// loop takes it from there. The request carries the client's timeout on
// top of ctx.
func (c *Client) RegisterContext(ctx context.Context, workerAddr string) error {
	body, err := json.Marshal(RegisterRequest{Addr: workerAddr})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	return c.postOK(ctx, "/v1/register", "application/json", body)
}

// PullFromContext fetches a snapshot from every worker daemon and
// merges it into the daemon this client points at — the coordinator
// side of the scatter-gather aggregation. Before any snapshot moves,
// every worker's Spec fingerprint is checked against the coordinator's
// via the /v1/config handshake: one drifted worker fails the whole pull
// with a 409 and zero merges, so the coordinator is never left holding
// a partial aggregation. Every request carries its own deadline (the
// client's timeout, under ctx), so one dead or hung worker fails the
// pull within that bound — with zero merges, because the handshake
// phase completes before the first snapshot ships.
func (c *Client) PullFromContext(ctx context.Context, workers []string) error {
	bounded := func(f func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(ctx, c.timeout)
		defer cancel()
		return f(ctx)
	}
	var info ConfigInfo
	if err := bounded(func(ctx context.Context) (err error) {
		info, err = c.ConfigContext(ctx)
		return err
	}); err != nil {
		return fmt.Errorf("coordinator config: %w", err)
	}
	for _, w := range workers {
		wc := NewClient(w, c.hc)
		if err := bounded(func(ctx context.Context) error {
			return wc.CheckSpecContext(ctx, info.Fingerprint)
		}); err != nil {
			return fmt.Errorf("worker %s: %w", w, err)
		}
	}
	for _, w := range workers {
		wc := NewClient(w, c.hc)
		var snap []byte
		if err := bounded(func(ctx context.Context) (err error) {
			snap, err = wc.SnapshotContext(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("worker %s: %w", w, err)
		}
		if err := bounded(func(ctx context.Context) error {
			return c.MergeContext(ctx, snap)
		}); err != nil {
			return fmt.Errorf("worker %s: %w", w, err)
		}
	}
	return nil
}

// EstimateContext queries /v1/estimate with the given parameters and
// returns the decoded, typed result. Which fields are set depends on
// the daemon kind's capabilities — see EstimateResult.
func (c *Client) EstimateContext(ctx context.Context, params url.Values) (EstimateResult, error) {
	u := "/v1/estimate"
	if enc := params.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := c.do(ctx, http.MethodGet, u, "", nil)
	if err != nil {
		return EstimateResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return EstimateResult{}, decodeError(resp)
	}
	defer drainClose(resp.Body)
	var out EstimateResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return EstimateResult{}, err
	}
	return out, nil
}

// Estimate is EstimateContext with a background context. It stays
// beside the ctx-first verbs only while the repository benchmark's
// harness (bench/) calls it.
func (c *Client) Estimate(params url.Values) (EstimateResult, error) {
	return c.EstimateContext(context.Background(), params)
}

// ConfigContext fetches the daemon's normalized Spec, its fingerprint,
// and the ingestion/space counters.
func (c *Client) ConfigContext(ctx context.Context) (ConfigInfo, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/config", "", nil)
	if err != nil {
		return ConfigInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ConfigInfo{}, decodeError(resp)
	}
	defer drainClose(resp.Body)
	var info ConfigInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return ConfigInfo{}, err
	}
	return info, nil
}
