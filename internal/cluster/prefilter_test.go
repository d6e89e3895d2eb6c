package cluster

import (
	"context"
	"reflect"
	"testing"
)

// TestClusterPrefilterPerVolume pins the documented per-volume
// semantics of maxCandidates under partitioning, through the
// coordinator and real workers:
//
//   - wide open (k ≥ bank size): no volume cuts anything, so the
//     gathered result is bit-identical to the unfiltered cluster run
//     (and, via TestCoordinatorEquivalence, to a single node);
//   - tight k: the cut may drop alignments but never invents or
//     rescores one — every survivor matches its unfiltered
//     counterpart exactly, E-value included (full-bank geometry), and
//     per query at most volumes×k distinct subjects remain;
//   - the workers' /metrics count the prefilter's work: none at k=0,
//     one prefiltered run per volume and nothing dropped when wide
//     open, pairs dropped under the tight cut.
func TestClusterPrefilterPerVolume(t *testing.T) {
	query, subject := wireWorkload(t, 10, 41)
	const volumes = 3

	// run scatters one request over fresh workers, so their prefilter
	// counters hold this request's work alone.
	type prefilterWork struct{ kept, dropped, runs float64 }
	run := func(maxCandidates int) (*Report, prefilterWork) {
		t.Helper()
		workers := []string{startWorker(t), startWorker(t), startWorker(t)}
		coord, err := New(Config{Workers: workers, Volumes: volumes})
		if err != nil {
			t.Fatal(err)
		}
		opt := wireOptions()
		if maxCandidates > 0 {
			opt.MaxCandidates = &maxCandidates
		}
		rep, err := coord.Compare(context.Background(), query, subject, opt)
		if err != nil {
			t.Fatal(err)
		}
		var w prefilterWork
		for _, u := range workers {
			fams := scrapeMetrics(t, u)
			for _, c := range []struct {
				name string
				to   *float64
			}{
				{"seedservd_prefilter_kept_total", &w.kept},
				{"seedservd_prefilter_dropped_total", &w.dropped},
				{"seedservd_prefilter_survivors_count", &w.runs},
			} {
				v, ok := fams.Value(c.name)
				if !ok {
					t.Fatalf("%s/metrics has no %s", u, c.name)
				}
				*c.to += v
			}
		}
		return rep, w
	}

	ref, refWork := run(0)
	if len(ref.Alignments) == 0 {
		t.Fatal("unfiltered cluster run produced no alignments")
	}
	if refWork != (prefilterWork{}) {
		t.Fatalf("k=0 cluster run recorded prefilter work: %+v", refWork)
	}

	got, gotWork := run(len(subject))
	if !reflect.DeepEqual(got.Alignments, ref.Alignments) {
		t.Fatalf("wide-open prefilter diverged from k=0 cluster run: %d vs %d alignments",
			len(got.Alignments), len(ref.Alignments))
	}
	if gotWork.dropped != 0 {
		t.Fatalf("wide-open cluster run dropped %g pairs", gotWork.dropped)
	}
	if gotWork.kept == 0 || gotWork.runs != volumes {
		t.Fatalf("workers did not count the prefilter on every volume: %+v", gotWork)
	}

	const k = 2
	cut, cutWork := run(k)
	subjects := map[string]map[string]bool{} // query → surviving subjects
	for _, a := range cut.Alignments {
		found := false
		for _, b := range ref.Alignments {
			if reflect.DeepEqual(a, b) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("filtered cluster run invented or rescored alignment %+v", a)
		}
		if subjects[a.Query] == nil {
			subjects[a.Query] = map[string]bool{}
		}
		subjects[a.Query][a.Subject] = true
	}
	for q, subs := range subjects {
		if len(subs) > volumes*k {
			t.Fatalf("query %s kept %d subjects, per-volume bound is %d×%d",
				q, len(subs), volumes, k)
		}
	}
	if cutWork.dropped == 0 {
		t.Fatalf("tight cut dropped nothing across %d subjects", len(subject))
	}
}
