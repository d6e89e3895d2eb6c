package cluster

import (
	"context"
	"reflect"
	"testing"

	"seedblast/internal/core"
)

// TestClusterPrefilterPerVolume pins the documented per-volume
// semantics of maxCandidates under partitioning:
//
//   - wide open (k ≥ bank size): no volume cuts anything, so the
//     gathered result is bit-identical to the unfiltered cluster run
//     (and, via TestLocalEquivalence, to a single node);
//   - tight k: the cut may drop alignments but never invents or
//     rescores one — every survivor matches its unfiltered
//     counterpart exactly, E-value included (full-bank geometry), and
//     per query at most volumes×k distinct subjects remain;
//   - the merged metrics fold the per-volume prefilter counters.
func TestClusterPrefilterPerVolume(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 41)
	const volumes = 3
	l := NewLocal(LocalConfig{Volumes: volumes})

	ref, err := l.Compare(context.Background(), b0, b1, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Alignments) == 0 {
		t.Fatal("unfiltered cluster run produced no alignments")
	}
	if ref.Metrics.PrefilterKept != 0 || ref.Metrics.Prefilter.Shards != 0 {
		t.Fatalf("k=0 cluster run recorded prefilter work: %+v", ref.Metrics.Prefilter)
	}

	got, err := l.Compare(context.Background(), b0, b1, testOptions(core.WithMaxCandidates(b1.Len()))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Alignments, ref.Alignments) {
		t.Fatalf("wide-open prefilter diverged from k=0 cluster run: %d vs %d alignments",
			len(got.Alignments), len(ref.Alignments))
	}
	if got.Metrics.PrefilterDropped != 0 {
		t.Fatalf("wide-open cluster run dropped %d pairs", got.Metrics.PrefilterDropped)
	}
	if got.Metrics.PrefilterKept == 0 || got.Metrics.Prefilter.Shards == 0 {
		t.Fatalf("merged metrics did not fold prefilter counters: %+v", got.Metrics.Prefilter)
	}

	const k = 2
	cut, err := l.Compare(context.Background(), b0, b1, testOptions(core.WithMaxCandidates(k))...)
	if err != nil {
		t.Fatal(err)
	}
	subjects := map[int]map[int]bool{} // query → surviving subjects
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
		if subjects[a.Seq0] == nil {
			subjects[a.Seq0] = map[int]bool{}
		}
		subjects[a.Seq0][a.Seq1] = true
	}
	for q, subs := range subjects {
		if len(subs) > volumes*k {
			t.Fatalf("query %d kept %d subjects, per-volume bound is %d×%d",
				q, len(subs), volumes, k)
		}
	}
	if cut.Metrics.PrefilterDropped == 0 {
		t.Fatalf("tight cut dropped nothing across %d subjects", b1.Len())
	}
}
