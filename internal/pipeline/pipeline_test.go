package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// testSeed returns a W=3 subset seed over a 10³-key space: small
// enough that tests run in milliseconds, rich enough that buckets
// collide across sequences.
func testSeed(t testing.TB) seed.Model {
	t.Helper()
	m, err := seed.NewSubset("test-1k", seed.Murphy10(), seed.Murphy10(), seed.Murphy10())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testBanks generates a query bank and a subject bank containing
// mutated copies of the queries, so step 2 finds real hits and step 3
// real alignments.
func testBanks(t testing.TB, n0 int) (*bank.Bank, *bank.Bank) {
	t.Helper()
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: n0, MeanLen: 90, LenJitter: 30, Seed: 7})
	rng := bank.NewRNG(9)
	b1 := bank.New("subjects")
	for i := 0; i < b0.Len(); i++ {
		b1.Add(fmt.Sprintf("s%d", i), bank.MutateProtein(rng, b0.Seq(i), 0.15))
	}
	return b0, b1
}

func testRequest(t testing.TB, b0, b1 *bank.Bank) *Request {
	t.Helper()
	gcfg := gapped.DefaultConfig()
	gcfg.MaxEValue = 10 // generous: the synthetic banks are small
	gcfg.Workers = 1
	return &Request{
		Bank0:   b0,
		Bank1:   b1,
		Seed:    testSeed(t),
		N:       14,
		Workers: 1,
		Gapped:  gcfg,
	}
}

func testBackend() *CPUBackend {
	return &CPUBackend{Matrix: matrix.BLOSUM62, Threshold: 30, Workers: 1}
}

func mustRun(t *testing.T, cfg Config, backend Backend, req *Request) *Output {
	t.Helper()
	eng, err := New(cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanShards(t *testing.T) {
	cases := []struct {
		n, size int
		want    [][2]int
	}{
		{0, 4, nil},
		{5, 0, [][2]int{{0, 5}}},
		{5, -3, [][2]int{{0, 5}}},
		{5, 5, [][2]int{{0, 5}}},
		{5, 9, [][2]int{{0, 5}}},
		{6, 2, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{5, 2, [][2]int{{0, 2}, {2, 4}, {4, 5}}},
		{5, 1, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
	}
	for _, c := range cases {
		got := planShards(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("planShards(%d,%d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("planShards(%d,%d) = %v, want %v", c.n, c.size, got, c.want)
			}
		}
	}
}

// hitKey is a comparable projection of a hit for set comparison.
type hitKey struct {
	S0, O0 uint32
	S1, O1 uint32
}

func sortedHitKeys(hits []ungapped.Hit) []hitKey {
	out := make([]hitKey, len(hits))
	for i, h := range hits {
		out[i] = hitKey{h.E0.Seq, h.E0.Off, h.E1.Seq, h.E1.Off}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S0 != b.S0 {
			return a.S0 < b.S0
		}
		if a.S1 != b.S1 {
			return a.S1 < b.S1
		}
		if a.O0 != b.O0 {
			return a.O0 < b.O0
		}
		return a.O1 < b.O1
	})
	return out
}

func normalizeAligns(as []gapped.Alignment) []gapped.Alignment {
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

// TestShardSizesEquivalent is the shard edge-case matrix: shard sizes
// of 1, a mid split, exactly bank-length and beyond bank-length must
// all produce the single-shard run's hit set and alignment set.
func TestShardSizesEquivalent(t *testing.T) {
	b0, b1 := testBanks(t, 9)
	req := testRequest(t, b0, b1)
	req.KeepHits = true

	ref := mustRun(t, Config{}, testBackend(), req)
	if ref.Hits == 0 || len(ref.Alignments) == 0 {
		t.Fatalf("degenerate workload: %d hits, %d alignments", ref.Hits, len(ref.Alignments))
	}
	if ref.Metrics.Shards != 1 {
		t.Fatalf("zero config ran %d shards, want 1", ref.Metrics.Shards)
	}
	refHits := sortedHitKeys(ref.UngappedHits)
	refAligns := normalizeAligns(ref.Alignments)

	for _, ss := range []int{1, 4, b0.Len(), b0.Len() + 13} {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("shard=%d/workers=%d", ss, workers)
			wreq := *req
			wreq.Workers, wreq.Gapped.Workers = workers, workers
			out := mustRun(t, Config{ShardSize: ss}, &CPUBackend{Matrix: matrix.BLOSUM62, Threshold: 30, Workers: workers}, &wreq)
			if out.Hits != ref.Hits || out.Pairs != ref.Pairs {
				t.Fatalf("%s: hits/pairs %d/%d, want %d/%d", name, out.Hits, out.Pairs, ref.Hits, ref.Pairs)
			}
			if out.GappedWork != ref.GappedWork {
				t.Errorf("%s: gapped stats %+v, want %+v", name, out.GappedWork, ref.GappedWork)
			}
			gotHits := sortedHitKeys(out.UngappedHits)
			if len(gotHits) != len(refHits) {
				t.Fatalf("%s: %d hits, want %d", name, len(gotHits), len(refHits))
			}
			for i := range gotHits {
				if gotHits[i] != refHits[i] {
					t.Fatalf("%s: hit %d = %+v, want %+v", name, i, gotHits[i], refHits[i])
				}
			}
			gotAligns := normalizeAligns(out.Alignments)
			if len(gotAligns) != len(refAligns) {
				t.Fatalf("%s: %d alignments, want %d", name, len(gotAligns), len(refAligns))
			}
			for i := range gotAligns {
				a, b := gotAligns[i], refAligns[i]
				if a.Seq0 != b.Seq0 || a.Seq1 != b.Seq1 || a.Score != b.Score ||
					a.Q != b.Q || a.S != b.S || a.EValue != b.EValue {
					t.Fatalf("%s: alignment %d differs: %+v vs %+v", name, i, a, b)
				}
			}
			wantShards := len(planShards(b0.Len(), ss))
			if out.Metrics.Shards != wantShards ||
				out.Metrics.Index.Shards != wantShards ||
				out.Metrics.Step2.Shards != wantShards ||
				out.Metrics.Step3.Shards != wantShards {
				t.Errorf("%s: metrics shards %+v, want %d per stage", name, out.Metrics, wantShards)
			}
		}
	}
}

func TestEmptyQueryBank(t *testing.T) {
	_, b1 := testBanks(t, 3)
	req := testRequest(t, bank.New("empty"), b1)
	out := mustRun(t, Config{ShardSize: 2}, testBackend(), req)
	if out.Hits != 0 || out.Pairs != 0 || len(out.Alignments) != 0 {
		t.Fatalf("empty bank produced work: %+v", out)
	}
	if out.Metrics.Shards != 0 {
		t.Fatalf("empty bank planned %d shards", out.Metrics.Shards)
	}
}

func TestPrebuiltIndexReuse(t *testing.T) {
	b0, b1 := testBanks(t, 6)
	req := testRequest(t, b0, b1)
	ref := mustRun(t, Config{ShardSize: 2}, testBackend(), req)

	ix1, err := index.Build(b1, req.Seed, req.N)
	if err != nil {
		t.Fatal(err)
	}
	req.Index1 = ix1
	out := mustRun(t, Config{ShardSize: 2}, testBackend(), req)
	if out.Hits != ref.Hits || len(out.Alignments) != len(ref.Alignments) {
		t.Fatalf("prebuilt index diverged: %d/%d hits, %d/%d alignments",
			out.Hits, ref.Hits, len(out.Alignments), len(ref.Alignments))
	}

	// A mismatched prebuilt index must be rejected.
	wrong, err := index.Build(b1, req.Seed, req.N+1)
	if err != nil {
		t.Fatal(err)
	}
	req.Index1 = wrong
	eng, err := New(Config{}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), req); err == nil {
		t.Fatal("mismatched Index1 accepted")
	}
}

func TestPrebuiltQueryIndex(t *testing.T) {
	b0, b1 := testBanks(t, 6)
	req := testRequest(t, b0, b1)
	ref := mustRun(t, Config{}, testBackend(), req)

	ix0, err := index.Build(b0, req.Seed, req.N)
	if err != nil {
		t.Fatal(err)
	}
	req.Index0 = ix0
	out := mustRun(t, Config{}, testBackend(), req)
	if out.Hits != ref.Hits || len(out.Alignments) != len(ref.Alignments) {
		t.Fatalf("prebuilt query index diverged: %d/%d hits, %d/%d alignments",
			out.Hits, ref.Hits, len(out.Alignments), len(ref.Alignments))
	}

	// Index0 is whole-bank only: a sharded run must reject it.
	eng, err := New(Config{ShardSize: 2}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), req); err == nil {
		t.Fatal("Index0 accepted on a sharded run")
	}

	// And a mismatched one must be rejected even single-shard.
	wrong, err := index.Build(b0, req.Seed, req.N+1)
	if err != nil {
		t.Fatal(err)
	}
	req.Index0 = wrong
	eng, err = New(Config{}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), req); err == nil {
		t.Fatal("mismatched Index0 accepted")
	}
}

func TestRequestValidation(t *testing.T) {
	b0, b1 := testBanks(t, 3)
	eng, err := New(Config{}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := eng.Run(context.Background(), nil); err == nil {
		t.Error("nil request accepted")
	}
	if _, err := eng.Run(context.Background(), &Request{Bank0: b0}); err == nil {
		t.Error("missing bank accepted")
	}
	req := testRequest(t, b0, b1)
	req.Seed = nil
	if _, err := eng.Run(context.Background(), req); err == nil {
		t.Error("missing seed accepted")
	}
	req = testRequest(t, b0, b1)
	req.N = -1
	if _, err := eng.Run(context.Background(), req); err == nil {
		t.Error("negative N accepted")
	}
}

// blockingBackend parks every Step2 call until its context is
// cancelled, signalling when the first shard arrives.
type blockingBackend struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Step2(ctx context.Context, sh *Shard, ix1 *index.Index) (*Step2Output, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancellationShutsDownCleanly cancels mid-run and asserts the
// engine returns promptly with the context's error and that every
// stage goroutine exits (goroutine count back to baseline).
func TestCancellationShutsDownCleanly(t *testing.T) {
	b0, b1 := testBanks(t, 8)
	req := testRequest(t, b0, b1)
	bb := &blockingBackend{started: make(chan struct{})}
	eng, err := New(Config{ShardSize: 2}, bb)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, req)
		errCh <- err
	}()

	<-bb.started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not shut down after cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failingBackend errors on one shard to exercise error propagation.
type failingBackend struct {
	inner  Backend
	failID int
}

func (b *failingBackend) Name() string { return "failing" }

func (b *failingBackend) Step2(ctx context.Context, sh *Shard, ix1 *index.Index) (*Step2Output, error) {
	if sh.ID == b.failID {
		return nil, fmt.Errorf("injected failure")
	}
	return b.inner.Step2(ctx, sh, ix1)
}

func TestBackendErrorPropagates(t *testing.T) {
	b0, b1 := testBanks(t, 8)
	req := testRequest(t, b0, b1)
	eng, err := New(Config{ShardSize: 2}, &failingBackend{inner: testBackend(), failID: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	_, err = eng.Run(context.Background(), req)
	if err == nil {
		t.Fatal("expected error from failing backend")
	}
	if got := err.Error(); !strings.Contains(got, "step 2") || !strings.Contains(got, "injected failure") {
		t.Fatalf("error %q missing stage context", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after error: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMetricsPopulated(t *testing.T) {
	b0, b1 := testBanks(t, 8)
	req := testRequest(t, b0, b1)
	out := mustRun(t, Config{ShardSize: 2}, testBackend(), req)
	m := out.Metrics
	if m.Shards != 4 {
		t.Fatalf("shards = %d, want 4", m.Shards)
	}
	if m.Wall <= 0 {
		t.Error("wall time not recorded")
	}
	if m.Index.Busy <= 0 || m.Step2.Busy <= 0 || m.Step3.Busy <= 0 {
		t.Errorf("stage busy times not recorded: %+v", m)
	}
	if out.IndexTime <= 0 || out.Step2Time <= 0 || out.Step3Time <= 0 {
		t.Errorf("step times not recorded: %v %v %v", out.IndexTime, out.Step2Time, out.Step3Time)
	}
}

// corruptBackend runs step 2 on the CPU, then appends a copy of one
// hit that corrupt has moved outside the banks.
type corruptBackend struct {
	*CPUBackend
	corrupt func(sh *Shard, h *ungapped.Hit)
}

func (b corruptBackend) Step2(ctx context.Context, sh *Shard, ix1 *index.Index) (*Step2Output, error) {
	r, err := b.CPUBackend.Step2(ctx, sh, ix1)
	if err != nil || len(r.Hits) == 0 {
		return r, err
	}
	h := r.Hits[len(r.Hits)/2]
	b.corrupt(sh, &h)
	r.Hits = append(r.Hits, h)
	return r, nil
}

// TestStep3RejectsHitsOutsideBanks: a backend that returns a hit
// outside the banks fails the run with step 3's error, at 1, 2 and 8
// step-3 workers per shard; the step-3 goroutine must not panic, which
// would take the process down.
func TestStep3RejectsHitsOutsideBanks(t *testing.T) {
	b0, b1 := testBanks(t, 6)
	cases := map[string]func(sh *Shard, h *ungapped.Hit){
		"bank-0 sequence": func(sh *Shard, h *ungapped.Hit) { h.E0.Seq = uint32(b0.Len()) },
		"bank-1 sequence": func(sh *Shard, h *ungapped.Hit) { h.E1.Seq = uint32(b1.Len()) },
		"subject offset":  func(sh *Shard, h *ungapped.Hit) { h.E1.Off = uint32(len(b1.Seq(int(h.E1.Seq)))) },
		"query offset":    func(sh *Shard, h *ungapped.Hit) { h.E0.Off = uint32(len(sh.Bank.Seq(int(h.E0.Seq)))) },
	}
	for name, corrupt := range cases {
		for _, cfg := range []Config{{}, {ShardSize: 2}} {
			for _, workers := range []int{1, 2, 8} {
				eng, err := New(cfg, corruptBackend{testBackend(), corrupt})
				if err != nil {
					t.Fatal(err)
				}
				req := testRequest(t, b0, b1)
				req.Gapped.Workers = workers
				_, err = eng.Run(context.Background(), req)
				if err == nil || !strings.Contains(err.Error(), "step 3") {
					t.Errorf("%s/shard=%d/workers=%d: Run returned %v, want a step-3 error", name, cfg.ShardSize, workers, err)
				}
			}
		}
	}
}
