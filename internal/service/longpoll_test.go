package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// heldDaemon is a seedservd handler whose only admission slot the test
// holds, so submitted jobs stay queued until release.
type heldDaemon struct {
	svc     *Service
	ts      *httptest.Server
	handled atomic.Int64 // status requests the handler has returned from
	entered chan struct{}
}

func newHeldDaemon(t *testing.T) *heldDaemon {
	t.Helper()
	d := &heldDaemon{svc: New(Config{MaxConcurrent: 1}), entered: make(chan struct{}, 256)}
	d.svc.sem <- struct{}{}
	h := NewHandler(d.svc)
	d.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Query().Has("wait") {
			d.entered <- struct{}{}
			defer d.handled.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		d.ts.Close()
		d.svc.Close()
	})
	return d
}

func (d *heldDaemon) release() { <-d.svc.sem }

func (d *heldDaemon) submit(t *testing.T) string {
	t.Helper()
	b0, b1 := testWorkload(t, 3, 77)
	resp := postJSON(t, d.ts.URL+"/v1/jobs", JobRequestJSON{Query: bankToJSON(b0), Subject: bankToJSON(b1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	return decodeJSON[map[string]string](t, resp)["id"]
}

// getStatus issues one status request and reports how long it was held.
func getStatus(t *testing.T, url string) (JobStatusJSON, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return decodeJSON[JobStatusJSON](t, resp), time.Since(start)
}

func terminal(st JobStatusJSON) bool {
	return st.State == string(JobDone) || st.State == string(JobFailed)
}

func TestLongPollWakesOnCompletion(t *testing.T) {
	d := newHeldDaemon(t)
	id := d.submit(t)
	url := d.ts.URL + "/v1/jobs/" + id

	// Without the parameter the reply is immediate, as it always was.
	if st, _ := getStatus(t, url); terminal(st) {
		t.Fatalf("held job reported %s", st.State)
	}
	// An expired wait is a 200 with the job still not terminal.
	st, held := getStatus(t, url+"?wait=30ms")
	if terminal(st) || held < 30*time.Millisecond {
		t.Fatalf("wait=30ms on a held job: state %s after %v", st.State, held)
	}

	// A job that ends during the wait wakes the request, and the reply is
	// whole: terminal state, finish time and summary together.
	go func() {
		<-d.entered // the 30ms wait above
		<-d.entered // the long wait is in the handler
		d.release()
	}()
	st, held = getStatus(t, url+"?wait=20s")
	if st.State != string(JobDone) {
		t.Fatalf("woken wait reported %s (%s)", st.State, st.Error)
	}
	if st.Started == nil || st.Finished == nil || st.Alignments == nil || st.Hits == nil || st.Pairs == nil {
		t.Errorf("woken reply is torn: %+v", st)
	}
	if held > 10*time.Second {
		t.Errorf("wait held %v, the job's end did not wake it", held)
	}

	// A terminal job answers at once however long the wait asked for.
	if st, held = getStatus(t, url+"?wait=20s"); !terminal(st) || held > 5*time.Second {
		t.Errorf("wait on a finished job: state %s after %v", st.State, held)
	}
}

func TestLongPollDeleteWakesWaiter(t *testing.T) {
	d := newHeldDaemon(t)
	defer d.release()
	id := d.submit(t)
	url := d.ts.URL + "/v1/jobs/" + id
	go func() {
		<-d.entered
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	st, held := getStatus(t, url+"?wait=20s")
	if st.State != string(JobFailed) || held > 10*time.Second {
		t.Fatalf("DELETE did not wake the waiter: state %s after %v", st.State, held)
	}
}

func TestLongPollWaitParameter(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  time.Duration
		bad   bool
	}{
		{"", 0, false},
		{"wait=", 0, false},
		{"wait=0", 0, false},
		{"wait=250ms", 250 * time.Millisecond, false},
		{"wait=30s", MaxWait, false},
		{"wait=10m", MaxWait, false}, // over the cap: clamped, not refused
		{"wait=-1s", 0, true},
		{"wait=soon", 0, true},
		{"wait=30", 0, true}, // a duration needs its unit
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1?"+tc.query, nil)
		got, err := waitParam(r)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("?%s: got %v, %v; want %v, bad=%v", tc.query, got, err, tc.want, tc.bad)
		}
	}

	// Over HTTP a bad wait is a 400 and never a held request.
	d := newHeldDaemon(t)
	defer d.release()
	resp, err := http.Get(d.ts.URL + "/v1/jobs/" + d.submit(t) + "?wait=-5s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative wait: status %d, want 400", resp.StatusCode)
	}
}

// A waiter whose client goes away must not hold its handler (and the
// goroutine serving it) for the rest of the wait.
func TestLongPollClientDisconnectReleasesHandler(t *testing.T) {
	d := newHeldDaemon(t)
	defer d.release()
	url := d.ts.URL + "/v1/jobs/" + d.submit(t) + "?wait=30s"
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
		<-d.entered
	}
	for _, cancel := range cancels {
		cancel()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for d.handled.Load() < waiters || runtime.NumGoroutine() > before+10 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned waits returned; %d goroutines, %d before",
				d.handled.Load(), waiters, runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Against a server that ignores ?wait= and answers at once, Wait is a
// loop paced by interval: one request per reply, never a spin.
func TestClientWaitPacesAnOlderServer(t *testing.T) {
	const running = 4
	const interval = 20 * time.Millisecond
	var mu sync.Mutex
	var arrivals []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		n := len(arrivals)
		mu.Unlock()
		state := "running"
		if n > running {
			state = "done"
		}
		fmt.Fprintf(w, `{"id":"job-1","state":%q,"mode":"bank"}`, state)
	}))
	defer ts.Close()

	st, err := NewClient(ts.URL, ClientConfig{}).Wait(context.Background(), "job-1", interval)
	if err != nil || st.State != string(JobDone) {
		t.Fatalf("Wait: %+v, %v", st, err)
	}
	if len(arrivals) != running+1 {
		t.Fatalf("%d requests for %d non-terminal replies, want %d", len(arrivals), running, running+1)
	}
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap < interval {
			t.Errorf("requests %d and %d are %v apart, less than the %v interval", i-1, i, gap, interval)
		}
	}
}
