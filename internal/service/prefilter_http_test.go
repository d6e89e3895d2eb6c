package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seedblast/internal/core"
	"seedblast/internal/telemetry"
)

// TestHTTPMaxCandidates covers the wire plumbing for the prefilter
// knob: validation of a negative value, the k=∞ bit-identity contract
// through the HTTP layer, and the /metrics families the stage feeds.
func TestHTTPMaxCandidates(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	b0, b1 := testWorkload(t, 8, 37)

	neg := -2
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequestJSON{
		Query:   bankToJSON(b0),
		Subject: bankToJSON(b1),
		Options: OptionsJSON{MaxCandidates: &neg},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative maxCandidates: status = %d, want 400", resp.StatusCode)
	}

	// Reference without the prefilter, then a wide-open filtered job:
	// the top-K cut never bites, so alignments must match exactly.
	want := libraryBanks(t, testSearcher(t, core.WithWorkers(0)), b0, b1)
	if len(want.Matches) == 0 {
		t.Fatal("reference run found no alignments")
	}
	k := b1.Len()
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequestJSON{
		Query:   bankToJSON(b0),
		Subject: bankToJSON(b1),
		Options: OptionsJSON{MaxCandidates: &k},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeJSON[map[string]string](t, resp)
	st := pollDone(t, ts.URL, sub["id"])
	if st.State != string(JobDone) {
		t.Fatalf("job failed: %s", st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub["id"] + "/alignments")
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
			t.Fatalf("alignment %d differs under wide-open prefilter:\nwant %+v\n got %+v", i, a, g)
		}
	}

	// A tight-cut run drives the prefilter counters and the exported
	// telemetry families.
	if _, err := searchBanks(svc, testSearcher(t, core.WithMaxCandidates(2)), b0, b1); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, svc)
	if kept, dropped := m.value("prefilter_kept_total"), m.value("prefilter_dropped_total"); kept == 0 || dropped == 0 {
		t.Fatalf("prefilter counters not fed: kept %v, dropped %v", kept, dropped)
	}
	if busy := m.value("stage_busy_seconds_total", telemetry.L("stage", "prefilter")); busy <= 0 {
		t.Fatalf("prefilter busy time not fed: %v", busy)
	}

	resp, err = http.Get(ts.URL + "/metrics")
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
		"seedservd_prefilter_kept_total",
		"seedservd_prefilter_dropped_total",
		"seedservd_prefilter_survivors_bucket",
		`seedservd_stage_busy_seconds_total{stage="prefilter"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
