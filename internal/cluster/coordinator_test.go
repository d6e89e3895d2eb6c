package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/service"
	"seedblast/internal/telemetry"
	"seedblast/internal/telemetry/telemetrytest"
)

// testWorkload returns a query bank and a subject bank holding mutated
// copies of the queries plus unrelated decoys, so the pipeline finds
// real alignments against a length-diverse bank.
func testWorkload(t testing.TB, n int, seed int64) (*bank.Bank, *bank.Bank) {
	t.Helper()
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: 100, LenJitter: 40, Seed: seed})
	rng := bank.NewRNG(seed + 1000)
	decoys := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: 140, LenJitter: 60, Seed: seed + 2000})
	b1 := bank.New("subjects")
	for i := 0; i < b0.Len(); i++ {
		b1.Add(fmt.Sprintf("s%d", 2*i), bank.MutateProtein(rng, b0.Seq(i), 0.15))
		b1.Add(fmt.Sprintf("s%d", 2*i+1), decoys.Seq(i))
	}
	return b0, b1
}

// wireWorkload converts the bank workload into the JSON sequence
// lists a coordinator scatters.
func wireWorkload(t testing.TB, n int, seed int64) (query, subject []service.SequenceJSON) {
	t.Helper()
	b0, b1 := testWorkload(t, n, seed)
	for i := 0; i < b0.Len(); i++ {
		query = append(query, service.SequenceJSON{ID: b0.ID(i), Seq: alphabet.DecodeProtein(b0.Seq(i))})
	}
	for i := 0; i < b1.Len(); i++ {
		subject = append(subject, service.SequenceJSON{ID: b1.ID(i), Seq: alphabet.DecodeProtein(b1.Seq(i))})
	}
	return query, subject
}

// coordMetrics is the coordinator's registry as /metrics serves it,
// parsed: one sample per (family, label set).
type coordMetrics struct {
	t    testing.TB
	fams telemetrytest.Families
}

func scrapeCoordinator(t testing.TB, c *Coordinator) coordMetrics {
	t.Helper()
	var b strings.Builder
	if _, err := c.Registry().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return parseCoordMetrics(t, b.String())
}

func parseCoordMetrics(t testing.TB, text string) coordMetrics {
	t.Helper()
	fams, err := telemetrytest.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("coordinator metrics violate the exposition grammar: %v\n%s", err, text)
	}
	return coordMetrics{t: t, fams: fams}
}

// value reads one seedclusterd_ sample; a missing one fails the test.
func (m coordMetrics) value(name string, labels ...telemetry.Label) float64 {
	m.t.Helper()
	v, ok := m.fams.Value("seedclusterd_"+name, labels...)
	if !ok {
		m.t.Fatalf("seedclusterd_%s%v not exposed", name, labels)
	}
	return v
}

// worker reads one per-worker seedclusterd_ sample.
func (m coordMetrics) worker(name, url string) float64 {
	m.t.Helper()
	return m.value(name, telemetry.L("worker", url))
}

func wireOptions() service.OptionsJSON {
	ev := 10.0
	return service.OptionsJSON{MaxEValue: &ev, Workers: 1}
}

// startWorker boots an in-process seedservd (real service behind a
// test listener) and returns its base URL.
func startWorker(t testing.TB) string {
	t.Helper()
	svc := service.New(service.Config{MaxConcurrent: 2})
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv.URL
}

// singleNodeReference submits the unpartitioned request to one worker
// and returns its alignments — the wire-level ground truth — and the
// job's final status, whose hits and pairs a gathered report sums to.
func singleNodeReference(t testing.TB, query, subject []service.SequenceJSON) ([]service.AlignmentJSON, *service.JobStatusJSON) {
	t.Helper()
	cl := service.NewClient(startWorker(t), service.ClientConfig{})
	ctx := context.Background()
	id, err := cl.Submit(ctx, &service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(service.JobDone) {
		t.Fatalf("reference job %s: %s", st.State, st.Error)
	}
	as, err := cl.Alignments(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("reference run produced no alignments; equivalence would be vacuous")
	}
	return as, st
}

// jobBodies runs one job through the daemon at url and returns its
// ?stream=1 and JSON-array alignment bodies as served.
func jobBodies(t testing.TB, url string, query, subject []service.SequenceJSON) (stream, array []byte) {
	t.Helper()
	ctx := context.Background()
	cl := service.NewClient(url, service.ClientConfig{})
	id, err := cl.Submit(ctx, &service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(ctx, id, 0); err != nil || st.State != string(service.JobDone) {
		t.Fatalf("job %s: %v %+v", id, err, st)
	}
	get := func(query string) []byte {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/alignments" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch%s: %d %v", query, resp.StatusCode, err)
		}
		return b
	}
	return get("?stream=1"), get("")
}

// coordinatorURL serves coord behind a coordinating service.
func coordinatorURL(t testing.TB, coord *Coordinator) string {
	t.Helper()
	server := NewServer(coord, ServerConfig{})
	srv := httptest.NewServer(NewHandler(server))
	t.Cleanup(func() { srv.Close(); server.Close() })
	return srv.URL
}

// TestCoordinatorEquivalence: scattered over real HTTP workers, the
// gathered report must be bit-identical to a single worker serving
// the unpartitioned bank — strategies × volume counts, more volumes
// than workers included — and its hits and pairs must sum to the
// single worker's. Served over HTTP, the coordinator's stream body is
// the single worker's byte for byte, and its array body decodes to the
// same alignments.
func TestCoordinatorEquivalence(t *testing.T) {
	query, subject := wireWorkload(t, 8, 51)
	want, ref := singleNodeReference(t, query, subject)
	if ref.Hits == nil || ref.Pairs == nil {
		t.Fatalf("reference status carries no hits/pairs: %+v", ref)
	}
	wantStream, _ := jobBodies(t, startWorker(t), query, subject)

	workers := []string{startWorker(t), startWorker(t), startWorker(t)}
	for _, p := range partitioners() {
		for _, volumes := range []int{2, 3, 5, 7} {
			t.Run(fmt.Sprintf("%s/%dvol", p.Name(), volumes), func(t *testing.T) {
				coord, err := New(Config{Workers: workers, Partitioner: p, Volumes: volumes})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep.Alignments, want) {
					t.Fatalf("merged wire alignments differ from single-node worker:\n got %d\nwant %d",
						len(rep.Alignments), len(want))
				}
				if rep.Hits != *ref.Hits || rep.Pairs != *ref.Pairs {
					t.Errorf("hits/pairs differ: got %d/%d, want %d/%d", rep.Hits, rep.Pairs, *ref.Hits, *ref.Pairs)
				}
				if rep.Volumes != min(volumes, len(subject)) {
					t.Errorf("report volumes = %d, want %d", rep.Volumes, volumes)
				}
				if rep.Retries != 0 {
					t.Errorf("healthy workers, but %d retries", rep.Retries)
				}

				stream, array := jobBodies(t, coordinatorURL(t, coord), query, subject)
				if !bytes.Equal(stream, wantStream) {
					t.Errorf("coordinator stream body (%d bytes) differs from the single worker's (%d bytes)", len(stream), len(wantStream))
				}
				var got []service.AlignmentJSON
				if err := json.Unmarshal(array, &got); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("coordinator array body decodes to %d alignments (%v), want %d", len(got), err, len(want))
				}
			})
		}
	}
}

// flakyWorker accepts submissions, then fails every poll with a 500 —
// a worker that died mid-job from the coordinator's point of view.
func flakyWorker(t testing.TB) string {
	t.Helper()
	var mu sync.Mutex
	n := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		n++
		id := fmt.Sprintf("flaky-%d", n)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"worker crashed"}`, http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestCoordinatorRetriesOnWorkerFailure: one worker dies mid-job (and
// another is down entirely); the partial gather must complete by
// retrying the lost volumes on the surviving worker, and the merged
// output must still be bit-identical.
func TestCoordinatorRetriesOnWorkerFailure(t *testing.T) {
	query, subject := wireWorkload(t, 6, 52)
	want, _ := singleNodeReference(t, query, subject)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens: submits fail at the transport

	workers := []string{flakyWorker(t), deadURL, startWorker(t)}
	coord, err := New(Config{
		Workers: workers,
		Volumes: 3,
		Client:  service.ClientConfig{Attempts: 2, Backoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
	if err != nil {
		t.Fatalf("gather did not survive worker failures: %v", err)
	}
	if !reflect.DeepEqual(rep.Alignments, want) {
		t.Fatalf("retried gather differs from single-node output: got %d alignments, want %d",
			len(rep.Alignments), len(want))
	}
	if rep.Retries == 0 {
		t.Error("two broken workers but the report counts no retries")
	}
	m := scrapeCoordinator(t, coord)
	if m.value("volume_retries_total") == 0 {
		t.Error("coordinator metrics count no retries")
	}
	if m.worker("worker_failures_total", workers[0]) == 0 && m.worker("worker_failures_total", workers[1]) == 0 {
		t.Error("neither broken worker charged with a failure")
	}
	if m.worker("worker_volumes_total", workers[2]) == 0 {
		t.Error("surviving worker served no volumes")
	}
	if c, f := m.value("requests_completed_total"), m.value("requests_failed_total"); c != 1 || f != 0 {
		t.Errorf("metrics completed/failed = %g/%g, want 1/0", c, f)
	}
}

// rewritingWorker is a real worker whose successful NDJSON fetches
// pass through rewrite, which returns the body to serve; rewrites
// counts the bodies it changed.
func rewritingWorker(t testing.TB, rewrite func(body []byte) []byte) (url string, rewrites *atomic.Int64) {
	t.Helper()
	svc := service.New(service.Config{})
	h := service.NewHandler(svc)
	rewrites = new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stream") != "1" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			if out := rewrite(bytes.Clone(body)); !bytes.Equal(out, body) {
				body = out
				rewrites.Add(1)
			}
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL, rewrites
}

// shortWorker is a real worker whose NDJSON fetch drops the last line
// of every non-empty result and still ends the body cleanly — the
// handler that stops writing early. dropped counts the lines lost.
func shortWorker(t testing.TB) (url string, dropped *atomic.Int64) {
	t.Helper()
	return rewritingWorker(t, func(body []byte) []byte {
		if cut := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n'); cut >= 0 {
			return body[:cut+1]
		}
		return body
	})
}

// TestCoordinatorRetriesOnShortStream: a volume whose stream delivers
// fewer records than its job's status promised — well-formed lines, a
// clean EOF — is a failed fetch: the volume moves to the next worker
// and the merge is whole, or the request fails; never a short answer.
func TestCoordinatorRetriesOnShortStream(t *testing.T) {
	query, subject := wireWorkload(t, 6, 52)
	want, _ := singleNodeReference(t, query, subject)

	short, dropped := shortWorker(t)
	coord, err := New(Config{Workers: []string{short, startWorker(t)}, Volumes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
	if err != nil {
		t.Fatalf("short stream was not retried around: %v", err)
	}
	if dropped.Load() == 0 {
		t.Fatal("the short worker served no stream; the test exercised nothing")
	}
	if !reflect.DeepEqual(rep.Alignments, want) {
		t.Fatalf("gather after a short stream differs from single-node output: got %d alignments, want %d",
			len(rep.Alignments), len(want))
	}
	if f := scrapeCoordinator(t, coord).worker("worker_failures_total", short); rep.Retries == 0 || f == 0 {
		t.Errorf("short stream not charged: %d retries, %g failures on the short worker", rep.Retries, f)
	}

	// With nobody to retry on, the request fails and says why.
	alone, err := New(Config{Workers: []string{short}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = alone.Compare(context.Background(), query, subject, wireOptions())
	if err == nil || !strings.Contains(err.Error(), "job status reports") {
		t.Fatalf("short stream from the only worker: %v", err)
	}
}

// TestCoordinatorRetriesOnUnknownID: a worker line naming a subject
// outside its volume is the worker's fault, not sequence 0: the volume
// moves to the next worker, and with nobody left the request fails.
func TestCoordinatorRetriesOnUnknownID(t *testing.T) {
	query, subject := wireWorkload(t, 6, 52)
	want, _ := singleNodeReference(t, query, subject)

	stray, rewrites := rewritingWorker(t, func(body []byte) []byte {
		return bytes.Replace(body, []byte(`"subject":"s`), []byte(`"subject":"stray-s`), 1)
	})
	coord, err := New(Config{Workers: []string{stray, startWorker(t)}, Volumes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
	if err != nil {
		t.Fatalf("unknown subject id was not retried around: %v", err)
	}
	if rewrites.Load() == 0 {
		t.Fatal("the stray worker rewrote no stream; the test exercised nothing")
	}
	if !reflect.DeepEqual(rep.Alignments, want) {
		t.Fatalf("gather after an unknown id differs from single-node output: got %d alignments, want %d",
			len(rep.Alignments), len(want))
	}
	if f := scrapeCoordinator(t, coord).worker("worker_failures_total", stray); rep.Retries == 0 || f == 0 {
		t.Errorf("unknown id not charged: %d retries, %g failures on the stray worker", rep.Retries, f)
	}

	alone, err := New(Config{Workers: []string{stray}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = alone.Compare(context.Background(), query, subject, wireOptions()); err == nil ||
		!strings.Contains(err.Error(), "outside the volume") {
		t.Fatalf("unknown subject id from the only worker: %v", err)
	}
}

// TestCoordinatorCanonicalizesLines: a worker line the codec does not
// recognise — here its keys in another order — is decoded and
// forwarded in canonical form, so the coordinator's stream body is
// still the single worker's byte for byte.
func TestCoordinatorCanonicalizesLines(t *testing.T) {
	query, subject := wireWorkload(t, 6, 52)
	want, _ := singleNodeReference(t, query, subject)
	wantStream, _ := jobBodies(t, startWorker(t), query, subject)

	// Every other line with its keys sorted, as a map marshals.
	reorder := func(body []byte) []byte {
		lines := bytes.SplitAfter(body, []byte("\n"))
		for i := 0; i < len(lines); i += 2 {
			var m map[string]json.RawMessage
			if json.Unmarshal(lines[i], &m) == nil {
				b, _ := json.Marshal(m)
				lines[i] = append(b, '\n')
			}
		}
		return bytes.Join(lines, nil)
	}
	sorted, rewrites := rewritingWorker(t, reorder)
	coord, err := New(Config{Workers: []string{sorted}, Volumes: 3})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := jobBodies(t, coordinatorURL(t, coord), query, subject)
	if rewrites.Load() == 0 {
		t.Fatal("the worker rewrote no stream; the test exercised nothing")
	}
	if !bytes.Equal(stream, wantStream) {
		t.Errorf("stream body over reordered lines (%d bytes) differs from the single worker's (%d bytes)", len(stream), len(wantStream))
	}
	rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
	if err != nil || !reflect.DeepEqual(rep.Alignments, want) || rep.Retries != 0 {
		t.Fatalf("gather over reordered lines: %v, %d retries, %d alignments, want %d", err, rep.Retries, len(rep.Alignments), len(want))
	}
}

// TestCoordinatorFailsWhenNoWorkerSurvives: when every worker is
// broken the request must fail with the volume's last error, and the
// failure must be counted.
func TestCoordinatorFailsWhenNoWorkerSurvives(t *testing.T) {
	query, subject := wireWorkload(t, 4, 53)
	coord, err := New(Config{
		Workers: []string{flakyWorker(t), flakyWorker(t)},
		Client:  service.ClientConfig{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Compare(context.Background(), query, subject, wireOptions())
	if err == nil {
		t.Fatal("request succeeded with every worker broken")
	}
	if !strings.Contains(err.Error(), "volume") {
		t.Errorf("error does not identify the failed volume: %v", err)
	}
	if f := scrapeCoordinator(t, coord).value("requests_failed_total"); f != 1 {
		t.Errorf("metrics failed = %g, want 1", f)
	}
}

// TestCoordinatorFailsFastOnClientError: a request every worker
// rejects as invalid (bad genetic code → 400 at submit) must fail on
// the first worker without rotating through the rest, and without
// charging healthy workers failures or burning retries.
func TestCoordinatorFailsFastOnClientError(t *testing.T) {
	query, subject := wireWorkload(t, 3, 56)
	coord, err := New(Config{Workers: []string{startWorker(t), startWorker(t), startWorker(t)}})
	if err != nil {
		t.Fatal(err)
	}
	opt := wireOptions()
	opt.GeneticCode = "not-a-code"
	_, err = coord.Compare(context.Background(), query, subject, opt)
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	if !strings.Contains(err.Error(), "submit rejected") {
		t.Errorf("error does not mark the rejection: %v", err)
	}
	m := scrapeCoordinator(t, coord)
	if r := m.value("volume_retries_total"); r != 0 {
		t.Errorf("client error burned %g retries; it should fail fast", r)
	}
	for _, u := range coord.cfg.Workers {
		if f := m.worker("worker_failures_total", u); f != 0 {
			t.Errorf("worker %s charged %g failures for a client error", u, f)
		}
	}
}

// Duplicate ids would silently remap alignments onto the wrong
// sequence during the gather, so the coordinator must reject them —
// including a clash manufactured by default-id normalization.
func TestCoordinatorRejectsDuplicateIDs(t *testing.T) {
	coord, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := []service.SequenceJSON{{ID: "q0", Seq: "MKV"}}
	dupSubject := []service.SequenceJSON{{ID: "A", Seq: "MKV"}, {ID: "B", Seq: "MKL"}, {ID: "A", Seq: "MKI"}}
	if _, err := coord.Compare(ctx, q, dupSubject, wireOptions()); err == nil || !strings.Contains(err.Error(), "duplicate subject id") {
		t.Errorf("duplicate subject ids not rejected: %v", err)
	}
	dupQuery := []service.SequenceJSON{{ID: "q0", Seq: "MKV"}, {ID: "q0", Seq: "MKL"}}
	sub := []service.SequenceJSON{{ID: "s0", Seq: "MKV"}}
	if _, err := coord.Compare(ctx, dupQuery, sub, wireOptions()); err == nil || !strings.Contains(err.Error(), "duplicate query id") {
		t.Errorf("duplicate query ids not rejected: %v", err)
	}
	// Normalization clash: explicit "subject1" plus a blank id at
	// position 1 both become "subject1".
	clash := []service.SequenceJSON{{ID: "subject1", Seq: "MKV"}, {Seq: "MKL"}}
	if _, err := coord.Compare(ctx, q, clash, wireOptions()); err == nil || !strings.Contains(err.Error(), "duplicate subject id") {
		t.Errorf("normalization-manufactured duplicate not rejected: %v", err)
	}
}

// hangingWorker accepts jobs that never finish and records which ones
// get cancelled — for pinning cancellation propagation. When answer is
// set, a submit is recorded at once but answered only once answer is
// closed.
type hangingWorker struct {
	mu        sync.Mutex
	submitted []string
	cancelled map[string]bool
	n         int
	answer    <-chan struct{}
}

func newHangingWorker(t testing.TB) (*hangingWorker, string) {
	t.Helper()
	h := &hangingWorker{cancelled: make(map[string]bool)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		h.mu.Lock()
		h.n++
		id := fmt.Sprintf("hang-%d", h.n)
		h.submitted = append(h.submitted, id)
		answer := h.answer
		h.mu.Unlock()
		if answer != nil {
			<-answer
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"id": r.PathValue("id"), "state": "running", "mode": "bank"})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		h.cancelled[r.PathValue("id")] = true
		h.mu.Unlock()
		fmt.Fprintf(w, `{"id":%q,"state":"failed"}`, r.PathValue("id"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return h, srv.URL
}

// submits counts the jobs submitted to the worker.
func (h *hangingWorker) submits() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.submitted)
}

// TestCoordinatorCancellationPropagates: cancelling the request
// context must abort the gather promptly AND cancel every outstanding
// job on the workers, so abandoned volumes stop burning worker
// admission slots. Two volumes over two workers put one volume on each
// (volume k prefers worker k, and each takes one of the two in-flight
// slots), so both workers hold a job when the context dies. The
// workers answer their submits only after it has died: a job a worker
// accepted in the middle of the cancellation must be cancelled too.
func TestCoordinatorCancellationPropagates(t *testing.T) {
	query, subject := wireWorkload(t, 4, 54)
	h1, u1 := newHangingWorker(t)
	h2, u2 := newHangingWorker(t)
	release := make(chan struct{})
	h1.answer, h2.answer = release, release
	coord, err := New(Config{Workers: []string{u1, u2}, Volumes: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	reached := make(chan bool, 1)
	go func() {
		// Let the scatter reach both workers, then pull the plug before
		// they answer.
		defer close(release)
		defer cancel()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if h1.submits() > 0 && h2.submits() > 0 {
				reached <- true
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		reached <- false
	}()

	start := time.Now()
	_, err = coord.Compare(ctx, query, subject, wireOptions())
	if err == nil {
		t.Fatal("cancelled Compare returned no error")
	}
	if context.Cause(ctx) == nil || time.Since(start) > 10*time.Second {
		t.Fatalf("Compare returned %v after %v", err, time.Since(start))
	}
	if !<-reached {
		t.Fatalf("the scatter reached %d and %d submits on the two workers in 5s, want one each", h1.submits(), h2.submits())
	}

	// Every job the workers accepted must have received its DELETE.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, h := range []*hangingWorker{h1, h2} {
			h.mu.Lock()
			for _, id := range h.submitted {
				if !h.cancelled[id] {
					ok = false
				}
			}
			h.mu.Unlock()
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("outstanding worker jobs were not cancelled after the request context died")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
