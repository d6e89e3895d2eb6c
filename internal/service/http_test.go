package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollDone polls the status endpoint until the job leaves the
// queued/running states.
func pollDone(t *testing.T, base, id string) JobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[JobStatusJSON](t, resp)
		if st.State == string(JobDone) || st.State == string(JobFailed) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func bankToJSON(b *bank.Bank) []SequenceJSON {
	out := make([]SequenceJSON, b.Len())
	for i := range out {
		out[i] = SequenceJSON{ID: b.ID(i), Seq: alphabet.DecodeProtein(b.Seq(i))}
	}
	return out
}

// The acceptance path: submit a bank-vs-bank job over HTTP, poll its
// status, fetch the alignments, and check them against a direct
// library run with the same options.
func TestHTTPSubmitPollFetch(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 23)
	// The HTTP layer builds options itself; match its default workers.
	want := libraryBanks(t, testSearcher(t, core.WithWorkers(0)), b0, b1)
	if len(want.Matches) == 0 {
		t.Fatal("reference run found no alignments")
	}

	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	ev := 10.0
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequestJSON{
		Query:   bankToJSON(b0),
		Subject: bankToJSON(b1),
		Options: OptionsJSON{MaxEValue: &ev},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeJSON[map[string]string](t, resp)
	id := sub["id"]
	if id == "" {
		t.Fatal("submit response missing job id")
	}

	st := pollDone(t, ts.URL, id)
	if st.State != string(JobDone) {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Mode != "bank" || st.Alignments == nil || *st.Alignments != len(want.Matches) {
		t.Fatalf("status summary wrong: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/alignments")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJSON[[]AlignmentJSON](t, resp)
	if len(got) != len(want.Matches) {
		t.Fatalf("fetched %d alignments, want %d", len(got), len(want.Matches))
	}
	for i, a := range want.Matches {
		g := got[i]
		if g.Query != b0.ID(a.Seq0) || g.Subject != b1.ID(a.Seq1) ||
			g.Score != a.Score || g.EValue != a.EValue ||
			g.QStart != a.Q.Start || g.QEnd != a.Q.End ||
			g.SStart != a.S.Start || g.SEnd != a.S.End {
			t.Fatalf("alignment %d over HTTP differs:\nwant %+v\n got %+v", i, a, g)
		}
	}

	// Unknown job: 404. Alignments of an unknown job: 404.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/alignments"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHTTPIgnoresRetiredKernelOption: the "kernel" and "traceback"
// options are gone and the request decoder ignores unknown fields, so
// a client that still sends one — even a value the old parser refused
// — gets exactly the alignments of a request without it.
func TestHTTPIgnoresRetiredKernelOption(t *testing.T) {
	b0, b1 := testWorkload(t, 6, 61)
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	run := func(retired map[string]any) []byte {
		t.Helper()
		opts := map[string]any{"maxEValue": 10.0}
		for k, v := range retired {
			opts[k] = v
		}
		resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"query": bankToJSON(b0), "subject": bankToJSON(b1), "options": opts,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%v: submit status = %d", retired, resp.StatusCode)
		}
		id := decodeJSON[map[string]string](t, resp)["id"]
		if st := pollDone(t, ts.URL, id); st.State != string(JobDone) {
			t.Fatalf("%v: job failed: %s", retired, st.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/alignments")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	want := run(nil)
	var aligns []AlignmentJSON
	if err := json.Unmarshal(want, &aligns); err != nil || len(aligns) == 0 {
		t.Fatalf("reference job: %d alignments, %v; test is vacuous", len(aligns), err)
	}
	for _, retired := range []map[string]any{
		{"kernel": "scalar"}, {"kernel": "blocked"}, {"kernel": "simd"}, {"traceback": true},
	} {
		if got := run(retired); !bytes.Equal(got, want) {
			t.Errorf("%v changed the alignments:\n got %s\nwant %s", retired, got, want)
		}
	}
}

func TestHTTPGenomeJob(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 6, MeanLen: 100, LenJitter: 15, Seed: 31})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 30_000, Source: proteins, PlantCount: 3, PlantSubRate: 0.1, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := library(t, testSearcher(t, core.WithWorkers(0)), proteins, core.NewGenomeTarget(genome, nil))
	if len(want.Matches) == 0 {
		t.Fatal("reference genome run found no matches")
	}

	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	ev := 10.0
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequestJSON{
		Query:   bankToJSON(proteins),
		Genome:  alphabet.DecodeDNA(genome),
		Options: OptionsJSON{MaxEValue: &ev},
	})
	sub := decodeJSON[map[string]string](t, resp)
	st := pollDone(t, ts.URL, sub["id"])
	if st.State != string(JobDone) {
		t.Fatalf("genome job failed: %s", st.Error)
	}
	if st.Mode != "genome" {
		t.Errorf("mode = %s, want genome", st.Mode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub["id"] + "/alignments")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJSON[[]AlignmentJSON](t, resp)
	if len(got) != len(want.Matches) {
		t.Fatalf("fetched %d matches, want %d", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		g := got[i]
		if l := m.Subject; g.Frame != l.Frame.String() || g.NucStart == nil || *g.NucStart != l.NucStart ||
			g.NucEnd == nil || *g.NucEnd != l.NucEnd || g.Query != proteins.ID(m.Query.Seq) {
			t.Fatalf("genome match %d over HTTP differs:\nwant %+v\n got %+v", i, m, g)
		}
	}
}

func TestHTTPValidationAndMetrics(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	// Every out-of-range or unknown option value is refused at submit by
	// the one check its With* setter or name parser holds.
	q, s := []SequenceJSON{{ID: "q", Seq: "MKV"}}, []SequenceJSON{{ID: "s", Seq: "MKV"}}
	for name, body := range map[string]JobRequestJSON{
		"negative n":             {Query: q, Subject: s, Options: OptionsJSON{N: ptr(-1)}},
		"zero maxEValue":         {Query: q, Subject: s, Options: OptionsJSON{MaxEValue: ptr(0.0)}},
		"negative maxEValue":     {Query: q, Subject: s, Options: OptionsJSON{MaxEValue: ptr(-2.0)}},
		"negative maxCandidates": {Query: q, Subject: s, Options: OptionsJSON{MaxCandidates: ptr(-1)}},
		"bad genetic code":       {Query: q, Subject: s, Options: OptionsJSON{GeneticCode: "bogus"}},

		"no query":           {Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}}},
		"subject and genome": {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}}, Genome: "ACGT"},
		"neither":            {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}},
		"bad residue":        {Query: []SequenceJSON{{ID: "q", Seq: "M1V"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}}},
		"bad engine":         {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}}, Options: OptionsJSON{Engine: "gpu"}},
		"bad nucleotide":     {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Genome: "ACGZ"},
		"negative search space": {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}},
			Options: OptionsJSON{SearchSpace: &SearchSpaceJSON{DBLen: -5}}},
		"empty search space": {Query: []SequenceJSON{{ID: "q", Seq: "MKV"}}, Subject: []SequenceJSON{{ID: "s", Seq: "MKV"}},
			Options: OptionsJSON{SearchSpace: &SearchSpaceJSON{}}},
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	// A healthy round trip, then the metrics reflect it.
	b0, b1 := testWorkload(t, 6, 51)
	for range 2 {
		if _, err := searchBanks(svc, testSearcher(t), b0, b1); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"seedservd_requests_completed_total 2",
		"seedservd_index_cache_hits_total 1",
		"seedservd_index_cache_misses_total 1",
		"seedservd_index_cache_hit_rate 0.5",
		`seedservd_stage_busy_seconds_total{stage="step2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// A forwarding service checks a submitted bank's residues without
// building it: the check allocates nothing however large the bank.
func TestForwardedBankCheckAllocatesNothing(t *testing.T) {
	b0, _ := testWorkload(t, 40, 7)
	seqs := bankToJSON(b0)
	if n := testing.AllocsPerRun(10, func() {
		if err := decodeBank("subject", seqs, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checking a %d-sequence bank allocated %g times", len(seqs), n)
	}
	svc := New(Config{Run: func(context.Context, *Request, func()) (*Result, error) { return &Result{}, nil }})
	defer svc.Close()
	req, err := svc.request(&JobRequestJSON{Query: seqs, Subject: seqs})
	if err != nil {
		t.Fatal(err)
	}
	if req.Body == nil || req.Query != nil || req.Subject != nil {
		t.Errorf("forwarded request decoded its banks: %+v", req)
	}
}
