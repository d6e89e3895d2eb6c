package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/pipeline"
	"seedblast/internal/translate"
)

// equivWorkload builds a protein bank and the six-frame bank of a
// genome with planted genes — the tblastn workload both drivers see.
func equivWorkload(t *testing.T) (*bank.Bank, *bank.Bank) {
	t.Helper()
	proteins, genome, _ := plantedWorkload(t, 12, 50_000, 6)
	frames := translate.SixFrames(genome)
	fbank := bank.New("frames")
	for _, ft := range frames {
		fbank.Add(ft.Frame.String(), ft.Protein)
	}
	return proteins, fbank
}

func sortAligns(as []gapped.Alignment) []gapped.Alignment {
	out := append([]gapped.Alignment(nil), as...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Seq0 != b.Seq0 {
			return a.Seq0 < b.Seq0
		}
		if a.Seq1 != b.Seq1 {
			return a.Seq1 < b.Seq1
		}
		if a.Q.Start != b.Q.Start {
			return a.Q.Start < b.Q.Start
		}
		if a.S.Start != b.S.Start {
			return a.S.Start < b.S.Start
		}
		return a.Score > b.Score
	})
	return out
}

// TestStreamingEquivalence is the acceptance gate for the shard
// engine: for every engine and shard size, the streaming path must
// reproduce the batch path's Hits, Pairs, gapped work profile and
// exact (order-normalised) alignment set.
func TestStreamingEquivalence(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	ref, err := CompareBatch(proteins, fbank, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Hits == 0 || len(ref.Alignments) == 0 {
		t.Fatalf("degenerate reference: %d hits, %d alignments", ref.Hits, len(ref.Alignments))
	}
	refAligns := sortAligns(ref.Alignments)

	n := proteins.Len()
	for _, eng := range []Engine{EngineCPU, EngineRASC} {
		for _, ss := range []int{0, 1, 5, n, n + 9} {
			name := fmt.Sprintf("%s/shard=%d", eng, ss)
			opt := DefaultOptions()
			opt.Engine = eng
			opt.Pipeline = pipeline.Config{ShardSize: ss}
			res, err := searchBanks(proteins, fbank, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Hits != ref.Hits || res.Pairs != ref.Pairs {
				t.Fatalf("%s: hits/pairs %d/%d, want %d/%d",
					name, res.Hits, res.Pairs, ref.Hits, ref.Pairs)
			}
			if res.GappedWork != ref.GappedWork {
				t.Errorf("%s: gapped work %+v, want %+v", name, res.GappedWork, ref.GappedWork)
			}
			got := sortAligns(res.Alignments)
			if len(got) != len(refAligns) {
				t.Fatalf("%s: %d alignments, want %d", name, len(got), len(refAligns))
			}
			for i := range got {
				a, b := got[i], refAligns[i]
				if a.Seq0 != b.Seq0 || a.Seq1 != b.Seq1 || a.Score != b.Score ||
					a.BitScore != b.BitScore || a.EValue != b.EValue ||
					a.Q != b.Q || a.S != b.S {
					t.Fatalf("%s: alignment %d differs:\n%+v\nvs\n%+v", name, i, a, b)
				}
			}
			if eng == EngineRASC && res.Device == nil {
				t.Errorf("%s: missing device report", name)
			}
		}
	}
}

// TestSingleShardOrderIdentical pins the drop-in guarantee: with the
// zero Pipeline config the streaming driver reproduces the batch
// path's alignments in the exact same order, element by element.
func TestSingleShardOrderIdentical(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	for _, eng := range []Engine{EngineCPU, EngineRASC} {
		opt := DefaultOptions()
		opt.Engine = eng
		batch, err := CompareBatch(proteins, fbank, opt)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := searchBanks(proteins, fbank, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(stream.Alignments) != len(batch.Alignments) {
			t.Fatalf("%s: %d alignments, want %d", eng, len(stream.Alignments), len(batch.Alignments))
		}
		for i := range stream.Alignments {
			a, b := stream.Alignments[i], batch.Alignments[i]
			if a.Seq0 != b.Seq0 || a.Seq1 != b.Seq1 || a.Score != b.Score ||
				a.EValue != b.EValue || a.Q != b.Q || a.S != b.S {
				t.Fatalf("%s: alignment %d out of order: %+v vs %+v", eng, i, a, b)
			}
		}
		if stream.Hits != batch.Hits || stream.Pairs != batch.Pairs {
			t.Fatalf("%s: hits/pairs diverged", eng)
		}
		if eng == EngineRASC {
			// The single-shard device report must be the shard's verbatim.
			if stream.Device == nil || batch.Device == nil {
				t.Fatal("missing device reports")
			}
			if stream.Device.Seconds != batch.Device.Seconds ||
				stream.Device.Pairs != batch.Device.Pairs ||
				stream.Device.Records != batch.Device.Records {
				t.Errorf("rasc: device report diverged: %+v vs %+v", stream.Device, batch.Device)
			}
		}
	}
}

// TestCompareContextCancelled pins cancellation of a blastp search
// (TestSearchCancellation covers the genome target).
func TestCompareContextCancelled(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSearcher(t, DefaultOptions())
	if _, err := collect(ctx, s, NewProteinTarget(proteins), NewProteinTarget(fbank)); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
