package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"seedblast/internal/service"
)

// TestServerJobFlow drives the coordinator daemon's HTTP API end to
// end with the shared service.Client — the same client the smoke
// tests and the coordinator itself use — proving the daemon really
// speaks the worker API, with the coordinator's families on /metrics.
func TestServerJobFlow(t *testing.T) {
	query, subject := wireWorkload(t, 6, 55)
	want, _ := singleNodeReference(t, query, subject)

	coord, err := New(Config{Workers: []string{startWorker(t), startWorker(t)}, Volumes: 3})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(coord, ServerConfig{})
	defer server.Close()
	srv := httptest.NewServer(NewHandler(server))
	defer srv.Close()

	cl := service.NewClient(srv.URL, service.ClientConfig{})
	ctx := context.Background()
	id, err := cl.Submit(ctx, &service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(service.JobDone) {
		t.Fatalf("cluster job %s: %s", st.State, st.Error)
	}
	if st.Hits == nil || *st.Hits == 0 {
		t.Error("done status carries no hit summary")
	}
	got, err := cl.Alignments(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("daemon alignments differ from single-node worker: got %d, want %d", len(got), len(want))
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, wantLine := range []string{
		"seedclusterd_requests_completed_total 1",
		"seedclusterd_last_volumes 3",
		"seedclusterd_worker_volumes_total{worker=",
		"seedclusterd_worker_latency_seconds_total{worker=",
	} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("/metrics missing %q:\n%s", wantLine, body)
		}
	}
	// Three volumes over two healthy workers: round-robin placement
	// gives each at least one.
	m := parseCoordMetrics(t, string(body))
	for _, u := range coord.cfg.Workers {
		if v := m.worker("worker_volumes_total", u); v < 1 {
			t.Errorf("healthy worker %s served %g volumes, want >= 1", u, v)
		}
	}

	// The hand-rendered page is gone; /metrics is the one exposition.
	resp, err = http.Get(srv.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /cluster/metrics: %d, want 404", resp.StatusCode)
	}
}

// The daemon's queue cap: with jobs stuck in flight, submissions
// beyond MaxQueued get 503 instead of pinning unbounded memory.
func TestServerQueueBounded(t *testing.T) {
	_, u := newHangingWorker(t)
	coord, err := New(Config{Workers: []string{u}})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(coord, ServerConfig{MaxQueued: 1})
	defer server.Close()
	srv := httptest.NewServer(NewHandler(server))
	defer srv.Close()

	cl := service.NewClient(srv.URL, service.ClientConfig{})
	ctx := context.Background()
	req := &service.JobRequestJSON{
		Query:   []service.SequenceJSON{{ID: "q0", Seq: "MKV"}},
		Subject: []service.SequenceJSON{{ID: "s0", Seq: "MKV"}},
	}
	id, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, req)
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit beyond MaxQueued: got %v, want 503", err)
	}
	// Cancelling the stuck job drains the queue and reopens it.
	if err := cl.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Submit(ctx, req); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never reopened after cancelling the stuck job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerValidation(t *testing.T) {
	coord, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(coord, ServerConfig{})
	defer server.Close()
	srv := httptest.NewServer(NewHandler(server))
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"subject":[{"seq":"MKV"}]}`); code != http.StatusBadRequest {
		t.Errorf("missing query accepted: %d", code)
	}
	if code := post(`{"query":[{"seq":"MKV"}]}`); code != http.StatusBadRequest {
		t.Errorf("missing subject accepted: %d", code)
	}
	if code := post(`{"query":[{"seq":"MKV"}],"genome":"ACGT"}`); code != http.StatusBadRequest {
		t.Errorf("genome job accepted by the cluster: %d", code)
	}
	if code := post(`{"query":[{"seq":"MKV"}],"subject":[{"seq":"MKV"}],"options":{"searchSpace":{"dbLen":9}}}`); code != http.StatusBadRequest {
		t.Errorf("client-supplied searchSpace accepted: %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: %d, want 404", resp.StatusCode)
	}
}

// A coordinator and a worker share one submit path, so a body a worker
// rejects is rejected by the coordinator too — before a job exists,
// with the same status and the same message.
func TestCoordinatorRejectsWhatWorkersReject(t *testing.T) {
	worker := startWorker(t)
	coordURL := startClusterOver(t, 0, worker)
	for _, c := range []struct{ name, body string }{
		{"bogus engine", `{"query":[{"seq":"MKV"}],"subject":[{"seq":"MKV"}],"options":{"engine":"bogus"}}`},
		{"negative n", `{"query":[{"seq":"MKV"}],"subject":[{"seq":"MKV"}],"options":{"n":-3}}`},
		{"bad query residue", `{"query":[{"id":"q0","seq":"MK1V"}],"subject":[{"seq":"MKV"}]}`},
		{"bad subject residue", `{"query":[{"seq":"MKV"}],"subject":[{"seq":"MKV"},{"seq":"1"}]}`},
		{"missing query", `{"subject":[{"seq":"MKV"}]}`},
		{"missing subject", `{"query":[{"seq":"MKV"}]}`},
	} {
		post := func(base string) (int, string) {
			t.Helper()
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}
		wCode, wBody := post(worker)
		cCode, cBody := post(coordURL)
		if wCode != http.StatusBadRequest {
			t.Errorf("%s: worker answered %d %s, want 400", c.name, wCode, wBody)
		}
		if cCode != wCode || cBody != wBody {
			t.Errorf("%s: coordinator answered %d %s, worker %d %s", c.name, cCode, cBody, wCode, wBody)
		}
	}
}

// Close cancels a coordinated job stuck on a worker that never
// finishes, and returns: the volume is cancelled on the worker.
func TestCoordinatorServiceCloseCancelsHungJob(t *testing.T) {
	h, u := newHangingWorker(t)
	coord, err := New(Config{Workers: []string{u}})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Run: coord.Run})
	query, subject := wireWorkload(t, 2, 57)
	j, err := svc.Submit(&service.Request{Body: &service.JobRequestJSON{Query: query, Subject: subject}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.submitted)
		h.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the volume never reached the worker")
		}
		time.Sleep(2 * time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on a hung job after 5s")
	}
	if j.State() != service.JobFailed {
		t.Errorf("hung job ended %s, want failed", j.State())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.submitted {
		if !h.cancelled[id] {
			t.Errorf("worker job %s was not cancelled on Close", id)
		}
	}
}
