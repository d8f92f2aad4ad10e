package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// peerQuarantineAfter is the consecutive-failure count at which a
// coordinator stops leasing to a peer for the rest of a job: the first
// failure may be the shard's fault, the second in a row is the peer's.
const peerQuarantineAfter = 2

// peerClient is a coordinator's HTTP client for one worker pfserve,
// speaking the same public job API any other client uses.
type peerClient struct {
	base string // normalized base URL, no trailing slash
	key  string
	hc   *http.Client

	slots chan struct{} // one token per lease held, at most ShardsPerPeer

	mu    sync.Mutex
	fails int // consecutive lease failures
}

func newPeerClient(base, key string, slots int) *peerClient {
	return &peerClient{base: strings.TrimRight(base, "/"), key: key, hc: &http.Client{},
		slots: make(chan struct{}, slots)}
}

// acquire takes one of the peer's lease slots, waiting until one is free
// or ctx ends.
func (p *peerClient) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (p *peerClient) release() { <-p.slots }

func (p *peerClient) noteFailure() {
	p.mu.Lock()
	p.fails++
	p.mu.Unlock()
}

func (p *peerClient) noteSuccess() {
	p.mu.Lock()
	p.fails = 0
	p.mu.Unlock()
}

func (p *peerClient) quarantined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fails >= peerQuarantineAfter
}

// do issues one request against the peer, attaching the shared peer API
// key when the ring runs with authentication.
func (p *peerClient) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if p.key != "" {
		req.Header.Set("X-API-Key", p.key)
	}
	return p.hc.Do(req)
}

// httpError drains up to 1 KiB of an error response into the message.
func httpError(op string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return fmt.Errorf("%s: %s: %s", op, resp.Status, strings.TrimSpace(string(b)))
}

// ensureDataset makes the content-hash-named dataset resident in the
// peer's catalog, uploading the FIMI bytes only on a cache miss. It
// reports whether an upload happened (for the hit/miss metric).
func (p *peerClient) ensureDataset(ctx context.Context, name string, data []byte) (uploaded bool, err error) {
	resp, err := p.do(ctx, http.MethodGet, "/datasets/"+name, nil)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return false, nil
	case http.StatusNotFound:
	default:
		return false, httpError("checking dataset on "+p.base, resp)
	}
	resp, err = p.do(ctx, http.MethodPut, "/datasets/"+name+"?format=fimi", data)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return false, httpError("uploading dataset to "+p.base, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return true, nil
}

// runJob submits spec to the peer, forwards its event stream through
// onEvent until the job is terminal, fetches the result, and removes the
// remote job. The result endpoint's JSON is a superset of the canonical
// encoding, so engine.DecodeReport reads it directly; an answer for
// another algorithm than the leased one fails the attempt.
func (p *peerClient) runJob(ctx context.Context, spec JobSpec, onEvent func(engine.Event)) (*engine.Report, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := p.do(ctx, http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		return nil, httpError("submitting shard to "+p.base, resp)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		return nil, fmt.Errorf("submitting shard to %s: bad response: %v", p.base, err)
	}
	// Always clean the remote job up — cancel it if this lease is being
	// abandoned, remove it if it finished — so workers don't accumulate
	// one job record per shard. Detached context: the lease context is
	// often already canceled when this runs.
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if resp, derr := p.do(cctx, http.MethodDelete, "/jobs/"+sub.ID, nil); derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// The follow stream doubles as completion wait: it ends when the
	// remote job is terminal (or the connection breaks, in which case the
	// result fetch below reports the job's true state).
	resp, err = p.do(ctx, http.MethodGet, "/jobs/"+sub.ID+"/events?follow=1", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, httpError("streaming shard events from "+p.base, resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var e engine.Event
		if err := dec.Decode(&e); err != nil {
			if err != io.EOF {
				resp.Body.Close()
				return nil, fmt.Errorf("streaming shard events from %s: %w", p.base, err)
			}
			break
		}
		onEvent(e)
	}
	resp.Body.Close()

	resp, err = p.do(ctx, http.MethodGet, "/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError("fetching shard result from "+p.base, resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading shard result from %s: %w", p.base, err)
	}
	rep, err := engine.DecodeReport(b)
	if err != nil {
		return nil, fmt.Errorf("decoding shard result from %s: %w", p.base, err)
	}
	if rep.Algorithm != spec.Algorithm {
		return nil, fmt.Errorf("shard result from %s is for algorithm %q, leased %q", p.base, rep.Algorithm, spec.Algorithm)
	}
	return rep, nil
}
