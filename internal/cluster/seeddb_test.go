package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/service"
)

// TestClusterPrebuiltVolumeDBs is the end-to-end test for the seeddb
// cluster workflow: `seeddb build -volumes K` cuts the subject bank
// with the same deterministic partitioner the coordinator uses, so
// when volume V's seeddb is preloaded on worker V (the coordinator's
// round-robin preference), every scattered volume job fingerprints
// onto a pre-warmed cache entry — no worker runs step 1 at all — and
// the merged report is still bit-identical to a single cold node.
func TestClusterPrebuiltVolumeDBs(t *testing.T) {
	const volumes = 2
	query, subject := wireWorkload(t, 8, 57)
	want, _ := singleNodeReference(t, query, subject)

	// Rebuild the volume banks exactly as `seeddb build -volumes` does:
	// partition by encoded residue length (identical to the wire
	// length: the protein encoding is one code per letter) under the
	// same strategy and count the coordinator will use.
	lens := make([]int, len(subject))
	for i, s := range subject {
		lens[i] = len(s.Seq)
	}
	part := SizeBalanced{}
	vols := part.Partition(lens, volumes)
	if len(vols) != volumes {
		t.Fatalf("partitioned into %d volumes, want %d", len(vols), volumes)
	}

	opt := core.DefaultOptions()
	var workerURLs []string
	var svcs []*service.Service
	dir := t.TempDir()
	for vi, vol := range vols {
		vb := bank.New(fmt.Sprintf("vol%d", vi))
		for _, gi := range vol.Seqs {
			enc, err := alphabet.EncodeProtein(subject[gi].Seq)
			if err != nil {
				t.Fatal(err)
			}
			vb.Add(subject[gi].ID, enc)
		}
		ix, err := index.BuildParallel(vb, opt.Seed, opt.N, 1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("vol%d.seeddb", vi))
		if err := ix.WriteFile(path); err != nil {
			t.Fatal(err)
		}

		svc := service.New(service.Config{MaxConcurrent: 2})
		if _, err := svc.PreloadDB(path); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(service.NewHandler(svc))
		t.Cleanup(func() { srv.Close(); svc.Close() })
		svcs = append(svcs, svc)
		workerURLs = append(workerURLs, srv.URL)
	}

	coord, err := New(Config{Workers: workerURLs, Partitioner: part, Volumes: volumes})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Compare(context.Background(), query, subject, wireOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Alignments, want) {
		t.Fatalf("prebuilt-volume gather diverged: %d vs %d alignments", len(rep.Alignments), len(want))
	}

	// The point of the exercise: every volume job hit its worker's
	// pre-warmed cache — no worker ran step 1 on its subject volume.
	// (IndexBusy stays nonzero: it also counts query-side shard
	// indexing, which is per-request by design.)
	for wi, svc := range svcs {
		st := svc.Metrics()
		if st.Cache.Misses != 0 {
			t.Errorf("worker %d: %d cache misses, want 0 (prebuilt volume should cover its scatter)", wi, st.Cache.Misses)
		}
		if st.Cache.Hits == 0 {
			t.Errorf("worker %d: no cache hits; did the coordinator's scatter reach it?", wi)
		}
	}

	// No retries, exactly one volume per worker: the round-robin
	// preference is what makes "vol K on worker K" line up.
	if rep.Retries != 0 {
		t.Errorf("%d retries; volume-to-worker preference did not hold", rep.Retries)
	}
	for _, pv := range rep.PerVolume {
		if pv.Worker != workerURLs[pv.Volume%len(workerURLs)] {
			t.Errorf("volume %d served by %s, want its preferred worker %s",
				pv.Volume, pv.Worker, workerURLs[pv.Volume%len(workerURLs)])
		}
	}
}
