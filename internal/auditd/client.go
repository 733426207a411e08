package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dagguise/internal/rng"
)

// Client streams observations into a dagauditd instance with the retry
// discipline the server's protocol assumes: timeouts and transport errors
// back off exponentially (capped, deterministic jitter via
// rng.BackoffDelay), 429 respects Retry-After, 409 rewinds the cursor
// to the server's expected sequence, and 4xx terminal states stop the
// stream. Because every observation carries its sequence number, any
// amount of retrying — including replaying the whole stream after a
// server crash — is idempotent.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:9470".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// BatchSize is observations per ingest request (default 64).
	BatchSize int
	// Retries bounds consecutive failed attempts per batch (default 8).
	Retries int
	// Backoff / MaxBackoff shape the retry delays (defaults 50ms / 2s).
	Backoff, MaxBackoff time.Duration
	// Seed keys the deterministic backoff jitter.
	Seed int64
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 64
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 8
}

// encodeBatch renders observations as the NDJSON wire format.
func encodeBatch(batch []Observation) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, o := range batch {
		_ = enc.Encode(o)
	}
	return buf.Bytes()
}

// post sends one ingest request and decodes the response body (best
// effort: a non-JSON body yields a zero IngestResult with the status).
func (c *Client) post(ctx context.Context, payload []byte) (IngestResult, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/ingest", bytes.NewReader(payload))
	if err != nil {
		return IngestResult{}, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.httpc().Do(req)
	if err != nil {
		return IngestResult{}, 0, nil, err
	}
	defer resp.Body.Close()
	var res IngestResult
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res)
	return res, resp.StatusCode, resp.Header, nil
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StreamResult summarises one Stream call.
type StreamResult struct {
	Accepted   int // observations newly accepted by the server
	Duplicates int // retransmissions the server acknowledged and dropped
	Retries    int // failed attempts that were retried
	Shed       int // 429 responses absorbed via backoff
}

// Stream sends observations (ascending, dense Seq) in batches until the
// server has acknowledged every one, surviving sheds, transport faults
// and server restarts. It is safe to call with a stream the server has
// partially or wholly seen: duplicates are acknowledged server-side.
func (c *Client) Stream(ctx context.Context, observations []Observation) (StreamResult, error) {
	var out StreamResult
	first := uint64(0)
	if len(observations) > 0 {
		first = observations[0].Seq
	}
	i, attempts := 0, 0
	for i < len(observations) {
		end := i + c.batchSize()
		if end > len(observations) {
			end = len(observations)
		}
		res, status, hdr, err := c.post(ctx, encodeBatch(observations[i:end]))

		backoffRetry := func(why string) error {
			attempts++
			out.Retries++
			if attempts > c.retries() {
				return fmt.Errorf("auditd client: batch at seq %d failed %d times: %s", observations[i].Seq, attempts, why)
			}
			return sleepCtx(ctx, rng.BackoffDelay(c.Backoff, c.MaxBackoff, c.Seed, attempts))
		}

		switch {
		case err != nil:
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			if err := backoffRetry(err.Error()); err != nil {
				return out, err
			}
		case status == http.StatusOK:
			i = end
			attempts = 0
			out.Accepted += res.Accepted
			out.Duplicates += res.Duplicates
		case status == http.StatusTooManyRequests:
			out.Shed++
			d := retryAfter(hdr)
			if d <= 0 {
				attempts++
				out.Retries++
				d = rng.BackoffDelay(c.Backoff, c.MaxBackoff, c.Seed, attempts)
			}
			if err := sleepCtx(ctx, d); err != nil {
				return out, err
			}
		case status == http.StatusConflict && res.Expected != nil:
			// Sequence gap: rewind the cursor to what the server expects.
			out.Accepted += res.Accepted
			out.Duplicates += res.Duplicates
			want := *res.Expected
			if want < first || want > first+uint64(len(observations)) {
				return out, fmt.Errorf("auditd client: server expects seq %d outside stream [%d,%d)", want, first, first+uint64(len(observations)))
			}
			i = int(want - first)
			if err := backoffRetry("sequence gap"); err != nil {
				return out, err
			}
		case status == http.StatusServiceUnavailable:
			if err := backoffRetry("server draining"); err != nil {
				return out, err
			}
		default:
			// 400/403/422/...: protocol-terminal, retrying cannot help.
			return out, fmt.Errorf("auditd client: server rejected batch (%d): %s", status, res.Error)
		}
	}
	return out, nil
}

// retryAfter parses a Retry-After seconds header, 0 if absent/invalid.
func retryAfter(hdr http.Header) time.Duration {
	if hdr == nil {
		return 0
	}
	n, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// Verdicts fetches all tenant verdicts, returning both the raw JSON bytes
// (byte-diffable across runs) and the decoded form.
func (c *Client) Verdicts(ctx context.Context) ([]byte, *VerdictsResponse, error) {
	raw, err := c.get(ctx, "/v1/verdicts")
	if err != nil {
		return nil, nil, err
	}
	var vr VerdictsResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		return raw, nil, fmt.Errorf("auditd client: decode verdicts: %w", err)
	}
	return raw, &vr, nil
}

// Flush forces the named tenant's final partial window. starved reports
// the typed insufficient-samples outcome (the flush is recorded but no
// calibrated window exists).
func (c *Client) Flush(ctx context.Context, tenant string) (starved bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/tenants/"+tenant+"/flush", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var fr FlushResponse
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&fr)
	switch {
	case resp.StatusCode == http.StatusOK:
		return false, nil
	case fr.Starved:
		return true, nil
	default:
		return false, fmt.Errorf("auditd client: flush %s (%d): %s", tenant, resp.StatusCode, fr.Error)
	}
}

// get fetches a URL path, returning the body on 200.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("auditd client: GET %s: %d", path, resp.StatusCode)
	}
	return body, nil
}
