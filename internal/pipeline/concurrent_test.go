package pipeline

import (
	"context"
	"strings"
	"sync"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/seed"
)

// poisonedModel wraps a seed model but returns an out-of-range key for
// the window equal to trigger, so an index build fails exactly for
// banks containing that window.
type poisonedModel struct {
	seed.Model
	trigger []byte
}

func (m poisonedModel) Key(w []byte) (uint32, bool) {
	if string(w) == string(m.trigger) {
		return 1 << 30, true
	}
	return m.Model.Key(w)
}

func mustEncode(t *testing.T, s string) []byte {
	t.Helper()
	b, err := alphabet.EncodeProtein(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Regression: a shard whose index build fails must not be counted in
// Metrics.Index.Shards, and the metrics must still be observable on
// the failure path (Run returns a non-nil Output carrying them).
func TestIndexFailureNotCountedInShardMetrics(t *testing.T) {
	clean := strings.Repeat("CDEFGHIKLMNPQRSTVWY", 3)
	b0 := bank.New("queries")
	b0.Add("q0", mustEncode(t, clean))
	b0.Add("q1", mustEncode(t, clean))
	b0.Add("q2", mustEncode(t, "CDEFG"+"AAA"+"HIKLM")) // poisons shard 1
	b0.Add("q3", mustEncode(t, clean))
	b1 := bank.New("subjects")
	b1.Add("s0", mustEncode(t, clean))

	model := poisonedModel{Model: seed.Exact(3), trigger: mustEncode(t, "AAA")}
	gcfg := gapped.DefaultConfig()
	gcfg.MaxEValue = 10
	gcfg.Workers = 1
	req := &Request{
		Bank0:   b0,
		Bank1:   b1,
		Seed:    model,
		N:       5,
		Workers: 1,
		Gapped:  gcfg,
	}
	eng, err := New(Config{ShardSize: 2}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), req)
	if err == nil {
		t.Fatal("expected shard index failure")
	}
	if !strings.Contains(err.Error(), "shard 1 index") {
		t.Fatalf("error %q does not identify the failing shard's index build", err)
	}
	if out == nil {
		t.Fatal("failure after the dataflow started must return Output with Metrics")
	}
	if out.Metrics.Shards != 2 {
		t.Errorf("planned shards = %d, want 2", out.Metrics.Shards)
	}
	if out.Metrics.Index.Shards != 1 {
		t.Errorf("Index.Shards = %d, want 1 (the failed build must not count)",
			out.Metrics.Index.Shards)
	}
	if out.Metrics.Index.Busy <= 0 {
		t.Error("Index.Busy should still record the time spent, including the failed build")
	}
}

// assertSameAlignments fails unless two alignment sets are
// bit-identical, including order.
func assertSameAlignments(t *testing.T, want, got []gapped.Alignment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("alignment count differs: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Seq0 != g.Seq0 || w.Seq1 != g.Seq1 || w.Score != g.Score ||
			w.BitScore != g.BitScore || w.EValue != g.EValue ||
			w.Q != g.Q || w.S != g.S || len(w.Ops) != len(g.Ops) {
			t.Fatalf("alignment %d differs:\nwant %+v\n got %+v", i, w, g)
		}
		for j := range w.Ops {
			if w.Ops[j] != g.Ops[j] {
				t.Fatalf("alignment %d op %d differs", i, j)
			}
		}
	}
}

// The documented concurrency contract: one Engine, many simultaneous
// Run calls sharing one prebuilt subject index, every request's output
// bit-identical to a sequential run. Run under -race in CI.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	b0, b1 := testBanks(t, 16)
	model := testSeed(t)
	ix1, err := index.BuildParallel(b1, model, 14, 0)
	if err != nil {
		t.Fatal(err)
	}
	newReq := func() *Request {
		gcfg := gapped.DefaultConfig()
		gcfg.MaxEValue = 10
		gcfg.Workers = 2
		return &Request{
			Bank0:   b0,
			Bank1:   b1,
			Seed:    model,
			N:       14,
			Workers: 2,
			Gapped:  gcfg,
			Index1:  ix1,
		}
	}
	eng, err := New(Config{ShardSize: 5}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(context.Background(), newReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Alignments) == 0 {
		t.Fatal("reference run found no alignments; workload too weak for the test")
	}

	const parallel = 6
	outs := make([]*Output, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = eng.Run(context.Background(), newReq())
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		assertSameAlignments(t, ref.Alignments, outs[i].Alignments)
		if outs[i].Hits != ref.Hits || outs[i].Pairs != ref.Pairs {
			t.Fatalf("concurrent run %d: hits/pairs diverge (%d/%d vs %d/%d)",
				i, outs[i].Hits, outs[i].Pairs, ref.Hits, ref.Pairs)
		}
	}
}
