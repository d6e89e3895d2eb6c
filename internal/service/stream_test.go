package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
)

// testGenomeString generates a genome with planted copies of the
// bank's proteins, as the wire's nucleotide string.
func testGenomeString(t *testing.T, src *bank.Bank) string {
	t.Helper()
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 30_000, Source: src, PlantCount: 3, PlantSubRate: 0.1, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	return alphabet.DecodeDNA(genome)
}

// submitAndFinish runs one job through a test server and returns its
// id once done.
func submitAndFinish(t *testing.T, ts *httptest.Server, req JobRequestJSON) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := decodeJSON[map[string]string](t, resp)["id"]
	st := pollDone(t, ts.URL, id)
	if st.State != string(JobDone) {
		t.Fatalf("job failed: %s", st.Error)
	}
	return id
}

// TestStreamAlignmentsMatchesArrayFetch pins the streaming fetch path:
// the NDJSON stream must carry exactly the records the array fetch
// does, in the same order, for both bank and genome jobs.
func TestStreamAlignmentsMatchesArrayFetch(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 23)
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := NewClient(ts.URL, ClientConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ev := 10.0
	jobs := []JobRequestJSON{
		{Query: bankToJSON(b0), Subject: bankToJSON(b1), Options: OptionsJSON{MaxEValue: &ev}},
		{Query: bankToJSON(b0), Genome: testGenomeString(t, b0), Options: OptionsJSON{MaxEValue: &ev}},
	}
	for _, req := range jobs {
		id := submitAndFinish(t, ts, req)

		want, err := cl.Alignments(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("degenerate job: no alignments to stream")
		}

		// The raw response must actually be NDJSON, not a JSON array.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/alignments?stream=1")
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if !strings.Contains(ct, "ndjson") {
			t.Fatalf("stream content type %q, want NDJSON", ct)
		}

		var got []AlignmentJSON
		for aj, err := range cl.StreamAlignments(ctx, id) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, aj)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed alignments diverge from array fetch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestStreamAlignmentsArrayFallback pins the version-skew path: a
// server that ignores ?stream=1 and answers with a JSON array must
// still stream-decode element by element.
func TestStreamAlignmentsArrayFallback(t *testing.T) {
	mux := http.NewServeMux()
	want := []AlignmentJSON{
		{Query: "q0", Subject: "s0", Score: 42, EValue: 1e-5},
		{Query: "q1", Subject: "s1", Score: 7, EValue: 0.5},
	}
	mux.HandleFunc("GET /v1/jobs/{id}/alignments", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, want)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := NewClient(ts.URL, ClientConfig{})
	var got []AlignmentJSON
	for aj, err := range cl.StreamAlignments(context.Background(), "job-1") {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, aj)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("array fallback decoded %+v, want %+v", got, want)
	}
}

// TestStreamAlignmentsErrors pins the failure surface: unknown jobs
// and unfinished jobs are yielded as errors, not silence.
func TestStreamAlignmentsErrors(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := NewClient(ts.URL, ClientConfig{})

	n := 0
	for _, err := range cl.StreamAlignments(context.Background(), "nope") {
		n++
		if err == nil {
			t.Fatal("unknown job streamed data")
		}
	}
	if n != 1 {
		t.Fatalf("unknown job yielded %d elements, want 1 error", n)
	}
}
