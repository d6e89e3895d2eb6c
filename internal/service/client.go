package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"time"

	"seedblast/internal/telemetry"
)

// Client is a typed HTTP client for the service's job API
// (submit/wait/fetch/cancel as served by NewHandler). It is the one
// place the wire protocol is spoken from the client side: the cluster
// coordinator scatters volumes through it and the end-to-end smoke
// tests drive daemons with it, so a protocol change breaks loudly in
// both. The zero value is not usable; construct with NewClient. A
// Client is safe for concurrent use.
//
// Idempotent calls (status, alignments, cancel, health) retry
// transient transport errors and 5xx responses with exponential
// backoff. Submit is deliberately not retried: it is not idempotent —
// a lost response would leave an orphan job running on the worker —
// and callers with retry semantics (the coordinator) reissue it at
// their own level where they can also pick a different worker.
type Client struct {
	base     string
	httpc    *http.Client
	streamc  *http.Client // httpc without the overall response timeout (streams are bounded by ctx)
	attempts int
	backoff  time.Duration
}

// ClientConfig tunes a Client. The zero value gets defaults.
type ClientConfig struct {
	// HTTPClient overrides the transport; nil means a client with a
	// 60 s per-request timeout.
	HTTPClient *http.Client
	// Attempts caps tries for idempotent calls. Zero or negative means 3.
	Attempts int
	// Backoff is the initial retry delay, doubling per attempt. Zero or
	// negative means 50 ms.
	Backoff time.Duration
}

// NewClient returns a client for the service at baseURL
// (e.g. "http://127.0.0.1:8844").
func NewClient(baseURL string, cfg ClientConfig) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	// Streaming fetches share the transport but drop the client-wide
	// Timeout: http.Client.Timeout spans the whole body, which would
	// kill a long NDJSON stream mid-read. Stream lifetimes are bounded
	// by the caller's context instead.
	streamc := *cfg.HTTPClient
	streamc.Timeout = 0
	return &Client{
		base:     strings.TrimRight(baseURL, "/"),
		httpc:    cfg.HTTPClient,
		streamc:  &streamc,
		attempts: cfg.Attempts,
		backoff:  cfg.Backoff,
	}
}

// BaseURL returns the service root this client talks to.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response from the service, with the decoded
// {"error": ...} message when the body carried one.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: http %d: %s", e.StatusCode, e.Message)
}

// Submit posts a job and returns its id. Not retried (see Client).
func (c *Client) Submit(ctx context.Context, req *JobRequestJSON) (string, error) {
	body, err := appendJobRequest(nil, req)
	if err != nil {
		return "", fmt.Errorf("service: encoding request: %w", err)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &out, false); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("service: submit returned no job id")
	}
	return out.ID, nil
}

// Wait returns the job's status once it is terminal (done or failed —
// inspect the returned status), or an error when ctx is cancelled or a
// request fails. It long-polls: each request asks the server to hold
// the reply for MaxWait (GET /v1/jobs/{id}?wait=30s), so a job costs
// one request however long it runs and the caller learns of its end as
// soon as the server does. A reply that is still not terminal — the
// wait ran out, or the server predates the wait parameter and answered
// at once — is asked for again after interval, which paces that loop
// and nothing else. interval <= 0 means 25 ms.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*JobStatusJSON, error) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	// The reply must arrive inside the HTTP client's own response timeout.
	wait := MaxWait
	if t := c.httpc.Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	path := "/v1/jobs/" + id + "?wait=" + wait.String()
	for {
		var st JobStatusJSON
		if err := c.do(ctx, http.MethodGet, path, nil, &st, true); err != nil {
			return nil, err
		}
		if st.State == string(JobDone) || st.State == string(JobFailed) {
			return &st, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Alignments fetches a finished job's alignments as one decoded slice.
func (c *Client) Alignments(ctx context.Context, id string) ([]AlignmentJSON, error) {
	var out []AlignmentJSON
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/alignments", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// StreamAlignments fetches a finished job's alignments as a stream:
// records are yielded as they are decoded off the wire (the server's
// ?stream=1 chunked NDJSON fetch path), so the full result is never
// resident on the client. A failure is yielded as the final element's
// non-nil error. Opening the stream retries transient errors like any
// idempotent call; a mid-stream failure is terminal (callers needing
// at-most-once semantics can reopen — the fetch is idempotent). A
// server that answers with a plain JSON array (no streaming support)
// is decoded incrementally all the same.
func (c *Client) StreamAlignments(ctx context.Context, id string) iter.Seq2[AlignmentJSON, error] {
	return func(yield func(AlignmentJSON, error) bool) {
		resp, err := c.get(ctx, "/v1/jobs/"+id+"/alignments?stream=1")
		if err != nil {
			yield(AlignmentJSON{}, err)
			return
		}
		defer drainClose(resp.Body) // drained even when the consumer stops early, so the stream connection is reused
		records := ndjsonAlignments
		if strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
			records = arrayAlignments
		}
		for aj, err := range records(resp.Body) {
			if err != nil {
				if ctx.Err() != nil {
					err = ctx.Err()
				}
				yield(AlignmentJSON{}, fmt.Errorf("service: decoding alignments: %w", err))
				return
			}
			if !yield(aj, nil) {
				return
			}
		}
	}
}

// ndjsonAlignments decodes one alignment per line: parseAlignment for
// the lines writeNDJSON writes, json.Unmarshal for any other. A body
// that ends inside a line is an error, from the read or from the
// decode of the fragment.
func ndjsonAlignments(body io.Reader) iter.Seq2[AlignmentJSON, error] {
	return func(yield func(AlignmentJSON, error) bool) {
		br := bufio.NewReaderSize(body, 32<<10)
		var long []byte // a line that outgrew br's buffer, collected
		for {
			line, err := br.ReadSlice('\n')
			if err == bufio.ErrBufferFull {
				long = append(long[:0], line...)
				for err == bufio.ErrBufferFull {
					line, err = br.ReadSlice('\n')
					long = append(long, line...)
				}
				line = long
			}
			if err != nil && err != io.EOF {
				yield(AlignmentJSON{}, err)
				return
			}
			if line = bytes.TrimSpace(line); len(line) > 0 {
				aj, ok := parseAlignment(line)
				if !ok {
					aj = AlignmentJSON{}
					if uerr := json.Unmarshal(line, &aj); uerr != nil {
						yield(AlignmentJSON{}, uerr)
						return
					}
				}
				if !yield(aj, nil) {
					return
				}
			}
			if err == io.EOF {
				return
			}
		}
	}
}

// arrayAlignments decodes the JSON-array form element by element.
func arrayAlignments(body io.Reader) iter.Seq2[AlignmentJSON, error] {
	return func(yield func(AlignmentJSON, error) bool) {
		dec := json.NewDecoder(body)
		if _, err := dec.Token(); err != nil { // the opening bracket
			yield(AlignmentJSON{}, err)
			return
		}
		for dec.More() {
			var aj AlignmentJSON
			if err := dec.Decode(&aj); err != nil {
				yield(AlignmentJSON{}, err)
				return
			}
			if !yield(aj, nil) {
				return
			}
		}
	}
}

// get issues one idempotent GET with the client's retry policy and
// returns the raw 2xx response for streaming consumption (no
// body-spanning timeout); failures classify exactly as in do.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	backoff := c.backoff
	var lastErr error
	for a := 0; a < c.attempts; a++ {
		if a > 0 {
			if err := sleepBackoff(ctx, &backoff); err != nil {
				return nil, err
			}
		}
		resp, retryable, err := c.attempt(ctx, http.MethodGet, path, nil, true)
		if err != nil {
			if !retryable {
				return nil, err
			}
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// Trace fetches a job's span trace (the GET /v1/jobs/{id}/trace
// endpoint). Live while the job runs; the coordinator calls it at
// gather time to graft worker spans into its own trace.
func (c *Client) Trace(ctx context.Context, id string) (*telemetry.TraceJSON, error) {
	var tj telemetry.TraceJSON
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &tj, true); err != nil {
		return nil, err
	}
	return &tj, nil
}

// Cancel stops a job. Cancelling an already-finished job is a no-op
// on the server and returns nil here.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, true)
}

// Healthy probes /healthz once.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, false)
}

// WaitHealthy polls /healthz until the service answers or ctx is
// cancelled — the "daemon just forked, wait for it to come up" helper.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		if err := c.Healthy(ctx); err == nil {
			return nil
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("service at %s not healthy: %w", c.base, ctx.Err())
		}
	}
}

// attempt issues one request and classifies its failure: transport
// errors and 5xx responses are retryable, context expiry and other
// non-2xx responses (APIError) are not. stream selects the client
// without the body-spanning timeout. The caller owns the returned
// response body.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, stream bool) (resp *http.Response, retryable bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A trace in the caller's context propagates over the wire: the
	// server runs the submitted job under the same trace ID, so the
	// coordinator's gather can stitch worker spans into its own trace.
	if tr := telemetry.TraceFromContext(ctx); tr != nil {
		req.Header.Set(telemetry.TraceHeader, tr.ID())
	}
	hc := c.httpc
	if stream {
		hc = c.streamc
	}
	resp, err = hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, err
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: readError(resp.Body)}
		drainClose(resp.Body)
		return nil, resp.StatusCode >= 500, apiErr
	}
	return resp, false, nil
}

// drainLimit caps how much of an abandoned response body drainClose
// will read through: past this, resetting the connection is cheaper
// than consuming the remainder just to reuse it.
const drainLimit = 256 << 10

// drainClose discards any unread remainder of a response body and
// closes it. Draining matters: the transport only reuses a keep-alive
// connection whose body was read to EOF — closing early tears it down
// and the next request pays a fresh dial. The close error is
// deliberately discarded; after a drain there is nothing left for it
// to say, and every caller is already on an error path or done with
// the response.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainLimit))
	_ = body.Close()
}

// sleepBackoff waits out one retry delay, doubling it in place.
func sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	select {
	case <-time.After(*backoff):
		*backoff *= 2
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do issues one API call: send body (when non-nil), decode the JSON
// response into out (when non-nil). retry enables the backoff loop for
// idempotent calls; 4xx responses never retry (the request itself is
// wrong), 5xx and transport errors do.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, retry bool) error {
	attempts := 1
	if retry {
		attempts = c.attempts
	}
	backoff := c.backoff
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if err := sleepBackoff(ctx, &backoff); err != nil {
				return err
			}
		}
		resp, retryable, err := c.attempt(ctx, method, path, body, false)
		if err != nil {
			if !retryable {
				return err
			}
			lastErr = err
			continue
		}
		if out == nil {
			drainClose(resp.Body)
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		drainClose(resp.Body) // the decoder may leave trailing bytes buffered
		if err != nil {
			lastErr = fmt.Errorf("service: decoding response: %w", err)
			continue // a truncated body is transient; retry when allowed
		}
		return nil
	}
	return lastErr
}

// readError extracts the handler's {"error": ...} message, falling
// back to the raw body.
func readError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
