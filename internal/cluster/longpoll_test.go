package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedblast/internal/service"
)

// heldCluster is a coordinating service over one real worker whose
// submissions the test holds back, so a cluster job stays running
// until release.
type heldCluster struct {
	url     string
	release func()
	entered chan struct{} // one token per ?wait= request that reached the handler
	handled atomic.Int64  // ?wait= requests the handler has returned from
}

func newHeldCluster(t *testing.T) *heldCluster {
	t.Helper()
	svc := service.New(service.Config{})
	worker := service.NewHandler(svc)
	gate := make(chan struct{})
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		worker.ServeHTTP(w, r)
	}))
	coord, err := New(Config{Workers: []string{ws.URL}})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(coord, ServerConfig{})
	h := &heldCluster{entered: make(chan struct{}, 256)}
	h.release = sync.OnceFunc(func() { close(gate) })
	front := NewHandler(server)
	fs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Query().Has("wait") {
			h.entered <- struct{}{}
			defer h.handled.Add(1)
		}
		front.ServeHTTP(w, r)
	}))
	h.url = fs.URL
	t.Cleanup(func() {
		h.release()
		fs.Close()
		server.Close()
		ws.Close()
		svc.Close()
	})
	return h
}

func (h *heldCluster) submit(t *testing.T) string {
	t.Helper()
	query, subject := wireWorkload(t, 4, 58)
	id, err := service.NewClient(h.url, service.ClientConfig{}).Submit(context.Background(),
		&service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func getStatus(t *testing.T, url string) (service.JobStatusJSON, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var st service.JobStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, time.Since(start)
}

func terminal(st service.JobStatusJSON) bool {
	return st.State == string(service.JobDone) || st.State == string(service.JobFailed)
}

// The coordinator daemon serves ?wait= exactly as a worker does.
func TestServerLongPollWakesOnCompletion(t *testing.T) {
	h := newHeldCluster(t)
	url := h.url + "/v1/jobs/" + h.submit(t)

	if st, _ := getStatus(t, url); terminal(st) {
		t.Fatalf("held job reported %s", st.State)
	}
	st, held := getStatus(t, url+"?wait=30ms")
	if terminal(st) || held < 30*time.Millisecond {
		t.Fatalf("wait=30ms on a held job: state %s after %v", st.State, held)
	}
	go func() {
		<-h.entered // the 30ms wait above
		<-h.entered // the long wait is in the handler
		h.release()
	}()
	st, held = getStatus(t, url+"?wait=20s")
	if st.State != string(service.JobDone) {
		t.Fatalf("woken wait reported %s (%s)", st.State, st.Error)
	}
	if st.Started == nil || st.Finished == nil || st.Alignments == nil || st.Hits == nil || st.Pairs == nil {
		t.Errorf("woken reply is torn: %+v", st)
	}
	if held > 10*time.Second {
		t.Errorf("wait held %v, the job's end did not wake it", held)
	}
	if st, held = getStatus(t, url+"?wait=20s"); !terminal(st) || held > 5*time.Second {
		t.Errorf("wait on a finished job: state %s after %v", st.State, held)
	}

	resp, err := http.Get(url + "?wait=-1s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative wait: status %d, want 400", resp.StatusCode)
	}
}

func TestServerLongPollDeleteWakesWaiter(t *testing.T) {
	h := newHeldCluster(t)
	url := h.url + "/v1/jobs/" + h.submit(t)
	go func() {
		<-h.entered
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	st, held := getStatus(t, url+"?wait=20s")
	if st.State != string(service.JobFailed) || held > 10*time.Second {
		t.Fatalf("DELETE did not wake the waiter: state %s after %v", st.State, held)
	}
}

func TestServerLongPollClientDisconnectReleasesHandler(t *testing.T) {
	h := newHeldCluster(t)
	url := h.url + "/v1/jobs/" + h.submit(t) + "?wait=30s"
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	before := runtime.NumGoroutine()

	const waiters = 100
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, waiters)
	for i := range cancels {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := hc.Do(req); err == nil {
				resp.Body.Close()
				t.Error("an abandoned wait got a reply")
			}
		}()
	}
	for range cancels {
		<-h.entered
	}
	for _, cancel := range cancels {
		cancel()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for h.handled.Load() < waiters || runtime.NumGoroutine() > before+10 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned waits returned; %d goroutines, %d before",
				h.handled.Load(), waiters, runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
