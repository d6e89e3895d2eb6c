package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
)

// testWorkload returns a query bank and a subject bank holding mutated
// copies of the queries, so the pipeline finds real alignments.
func testWorkload(t testing.TB, n int, seed int64) (*bank.Bank, *bank.Bank) {
	t.Helper()
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: 100, LenJitter: 25, Seed: seed})
	rng := bank.NewRNG(seed + 1000)
	b1 := bank.New("subjects")
	for i := 0; i < b0.Len(); i++ {
		b1.Add(fmt.Sprintf("s%d", i), bank.MutateProtein(rng, b0.Seq(i), 0.15))
	}
	return b0, b1
}

// testSearcher builds the Searcher the service tests run: one worker,
// E ≤ 10, then any extra options.
func testSearcher(t testing.TB, extra ...core.Option) *core.Searcher {
	t.Helper()
	opts := append([]core.Option{core.WithWorkers(1), core.WithMaxEValue(10)}, extra...)
	s, err := core.NewSearcher(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// outcome is one collected run — what a done Job holds.
type outcome struct {
	Matches []core.Match
	*core.Summary
}

// library runs s standalone: the reference every service result must
// equal.
func library(t testing.TB, s *core.Searcher, query *bank.Bank, target core.Target) outcome {
	t.Helper()
	res := s.Search(context.Background(), core.NewProteinTarget(query), target)
	ms, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return outcome{ms, sum}
}

// libraryBanks is library over a protein subject bank.
func libraryBanks(t testing.TB, s *core.Searcher, b0, b1 *bank.Bank) outcome {
	t.Helper()
	return library(t, s, b0, core.NewProteinTarget(b1))
}

// waitDone blocks until j finishes and returns its failure.
func waitDone(j *Job) error {
	<-j.Done()
	return j.Snapshot().Err
}

// submitWait runs req through svc as a job and returns the done job's
// result.
func submitWait(svc *Service, req *Request) (*Result, error) {
	j, err := svc.Submit(req)
	if err != nil {
		return nil, err
	}
	if err := waitDone(j); err != nil {
		return nil, err
	}
	return j.Snapshot().Result, nil
}

// searchBanks runs a bank-vs-bank request through svc as a job.
func searchBanks(svc *Service, s *core.Searcher, b0, b1 *bank.Bank) (*Result, error) {
	return submitWait(svc, &Request{Query: b0, Subject: b1, Searcher: s})
}

// assertSameResult checks a job's result against the standalone run:
// the same hits and pairs, and each match in the wire form the service
// reports it in.
func assertSameResult(t *testing.T, want outcome, got *Result) {
	t.Helper()
	if want.Hits != got.Hits || want.Pairs != got.Pairs {
		t.Fatalf("hits/pairs differ: want %d/%d, got %d/%d", want.Hits, want.Pairs, got.Hits, got.Pairs)
	}
	aligns, err := DecodeAlignments(got.NDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) != len(aligns) || got.Count != len(aligns) {
		t.Fatalf("alignment counts differ: want %d, got %d lines and a count of %d", len(want.Matches), len(aligns), got.Count)
	}
	for i := range want.Matches {
		if w, g := MatchJSON(&want.Matches[i]), aligns[i]; !reflect.DeepEqual(w, g) {
			t.Fatalf("alignment %d differs:\nwant %+v\n got %+v", i, w, g)
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newIndexCache(4)
	b := bank.GenerateProteins(bank.ProteinConfig{N: 4, MeanLen: 60, Seed: 1})
	opt := core.DefaultOptions()

	var builds atomic.Int32
	build := func() (*index.Index, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the singleflight window
		return index.BuildParallel(b, opt.Seed, opt.N, 1)
	}

	const waiters = 8
	got := make([]*index.Index, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix, err := c.get(context.Background(), "k", build)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ix
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key under concurrency, want 1 (singleflight)", n)
	}
	for i := 1; i < waiters; i++ {
		if got[i] != got[0] {
			t.Fatalf("waiter %d received a different index instance", i)
		}
	}
	st := c.snapshot()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d hits", st, waiters-1)
	}
}

func TestCacheFailedBuildNotCached(t *testing.T) {
	c := newIndexCache(4)
	var calls atomic.Int32
	failing := func() (*index.Index, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom")
	}
	if _, err := c.get(context.Background(), "k", failing); err == nil {
		t.Fatal("expected build error")
	}
	if _, err := c.get(context.Background(), "k", failing); err == nil {
		t.Fatal("expected build error on retry")
	}
	if calls.Load() != 2 {
		t.Errorf("failed build was cached: %d calls, want 2", calls.Load())
	}
	if st := c.snapshot(); st.Entries != 0 {
		t.Errorf("failed entries left resident: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newIndexCache(2)
	b := bank.GenerateProteins(bank.ProteinConfig{N: 2, MeanLen: 40, Seed: 5})
	opt := core.DefaultOptions()
	mk := func() (*index.Index, error) { return index.BuildParallel(b, opt.Seed, opt.N, 1) }
	for _, k := range []string{"a", "b", "a", "c"} { // touches keep "a" hot, "b" is LRU
		if _, err := c.get(context.Background(), k, mk); err != nil {
			t.Fatal(err)
		}
	}
	st := c.snapshot()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after eviction = %+v, want 2 entries, 1 eviction", st)
	}
	// "a" must still be resident (hit), "b" must have been evicted (miss).
	misses := st.Misses
	if _, err := c.get(context.Background(), "a", mk); err != nil {
		t.Fatal(err)
	}
	if st = c.snapshot(); st.Misses != misses {
		t.Error(`hot entry "a" was evicted instead of LRU "b"`)
	}
	if _, err := c.get(context.Background(), "b", mk); err != nil {
		t.Fatal(err)
	}
	if st = c.snapshot(); st.Misses != misses+1 {
		t.Error(`LRU entry "b" unexpectedly still resident`)
	}
}

func TestServiceMatchesCore(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 3)
	s := testSearcher(t)
	want := libraryBanks(t, s, b0, b1)
	if len(want.Matches) == 0 {
		t.Fatal("workload produced no alignments")
	}
	svc := New(Config{})
	defer svc.Close()
	got, err := searchBanks(svc, s, b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)

	m := svc.Metrics()
	if m.Completed != 1 || m.Cache.Misses != 1 {
		t.Errorf("metrics after one request: %+v", m)
	}

	// Second identical request: cache hit, identical result.
	got2, err := searchBanks(svc, s, b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got2)
	m = svc.Metrics()
	if m.Cache.Hits != 1 {
		t.Errorf("second request did not hit the index cache: %+v", m.Cache)
	}
	if m.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.CacheHitRate)
	}
}

// Concurrent requests through the service against one shared subject
// bank: every response bit-identical to the sequential reference, one
// index build total. Run under -race in CI.
func TestServiceConcurrentBitIdentical(t *testing.T) {
	b0a, b1 := testWorkload(t, 12, 7)
	b0b := bank.GenerateProteins(bank.ProteinConfig{N: 9, MeanLen: 100, LenJitter: 25, Seed: 7}) // prefix queries
	s := testSearcher(t)
	refA := libraryBanks(t, s, b0a, b1)
	refB := libraryBanks(t, s, b0b, b1)

	svc := New(Config{MaxConcurrent: 3, CacheEntries: 4})
	defer svc.Close()

	const rounds = 10
	var wg sync.WaitGroup
	errs := make([]error, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, want := b0a, refA
			if i%2 == 1 {
				q, want = b0b, refB
			}
			got, err := searchBanks(svc, s, q, b1)
			if err != nil {
				errs[i] = err
				return
			}
			assertSameResult(t, want, got)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := svc.Metrics()
	if m.Cache.Misses != 1 {
		t.Errorf("%d index builds for one hot subject bank, want 1 (singleflight+cache): %+v",
			m.Cache.Misses, m.Cache)
	}
	if m.Completed != rounds {
		t.Errorf("completed = %d, want %d", m.Completed, rounds)
	}
	if m.Running != 0 || m.Waiting != 0 {
		t.Errorf("gauges not drained: %+v", m)
	}
}

func TestServiceGenomeCached(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 8, MeanLen: 110, LenJitter: 20, Seed: 41})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 40_000, Source: proteins, PlantCount: 4, PlantSubRate: 0.1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := testSearcher(t)
	want := library(t, s, proteins, core.NewGenomeTarget(genome, nil))
	if len(want.Matches) == 0 {
		t.Fatal("no genome matches in reference run")
	}

	svc := New(Config{})
	defer svc.Close()
	for round := 0; round < 2; round++ {
		got, err := submitWait(svc, &Request{Query: proteins, Genome: genome, Searcher: s})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got)
	}
	if m := svc.Metrics(); m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("genome frame index not cached across runs: %+v", m.Cache)
	}
}

func TestJobLifecycle(t *testing.T) {
	b0, b1 := testWorkload(t, 8, 11)
	svc := New(Config{})

	j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(j); err != nil {
		t.Fatal(err)
	}
	if j.State() != JobDone {
		t.Fatalf("state = %s, want done", j.State())
	}
	snap := j.Snapshot()
	if snap.Result == nil || snap.Result.Count == 0 {
		t.Fatal("done job has no result")
	}
	if sub, started, fin := snap.Submitted, snap.Started, snap.Finished; sub.IsZero() || started.IsZero() || fin.IsZero() || fin.Before(started) {
		t.Errorf("inconsistent job times: %v %v %v", sub, started, fin)
	}
	if got, ok := svc.Job(j.ID()); !ok || got != j {
		t.Error("Job lookup by id failed")
	}
	if all := svc.Jobs(); len(all) != 1 || all[0] != j {
		t.Error("Jobs() does not list the job")
	}

	// Validation.
	if _, err := svc.Submit(&Request{Query: b0}); err == nil {
		t.Error("request without subject or genome accepted")
	}
	if _, err := svc.Submit(&Request{Query: b0, Subject: b1, Genome: []byte{0}}); err == nil {
		t.Error("request with both subject and genome accepted")
	}

	svc.Close()
	if _, err := svc.Submit(&Request{Query: b0, Subject: b1}); err == nil {
		t.Error("Submit after Close accepted")
	}
}

func TestJobCancel(t *testing.T) {
	b0, b1 := testWorkload(t, 30, 13)
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()

	// Occupy the only slot so the second job sits in admission, then
	// cancel it there.
	first, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	second.Cancel()
	_ = waitDone(second)
	if err := waitDone(first); err != nil {
		t.Fatalf("first job: %v", err)
	}
	// The cancelled job either failed with a context error or finished
	// if it had already been admitted; both are legal. What must hold:
	// both jobs finished and the service gauges drained.
	if s := second.State(); s != JobFailed && s != JobDone {
		t.Errorf("cancelled job state = %s", s)
	}
	if m := svc.Metrics(); m.Running != 0 || m.Waiting != 0 {
		t.Errorf("gauges not drained after cancel: %+v", m)
	}
}

// The headline claim: repeated requests against a hot subject bank are
// cheaper through the service (shared index) than naive per-request
// searches against a fresh target, which rebuild the subject index
// every time.
func BenchmarkServiceConcurrent(b *testing.B) {
	b0, b1 := testWorkload(b, 24, 17)
	s := testSearcher(b)
	svc := New(Config{MaxConcurrent: 4, CacheEntries: 4})
	defer svc.Close()
	// Warm the cache so steady-state behaviour is measured.
	if _, err := searchBanks(svc, s, b0, b1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := searchBanks(svc, s, b0, b1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNaiveConcurrent is the baseline BenchmarkServiceConcurrent
// beats: the same workload with a fresh subject target per request,
// rebuilding the subject index on every call.
func BenchmarkNaiveConcurrent(b *testing.B) {
	b0, b1 := testWorkload(b, 24, 17)
	s := testSearcher(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			libraryBanks(b, s, b0, b1)
		}
	})
}

func TestJobRetentionBounded(t *testing.T) {
	b0, b1 := testWorkload(t, 4, 61)
	svc := New(Config{MaxJobsRetained: 2})
	defer svc.Close()
	var last *Job
	for i := 0; i < 5; i++ {
		j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitDone(j); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	jobs := svc.Jobs()
	if len(jobs) > 2 {
		t.Fatalf("retained %d finished jobs, cap is 2", len(jobs))
	}
	if _, ok := svc.Job(last.ID()); !ok {
		t.Error("newest job was pruned; only the oldest finished jobs should be")
	}
	if _, ok := svc.Job("job-1"); ok {
		t.Error("oldest finished job survived past the retention cap")
	}
}

// TTL eviction: finished jobs older than JobTTL disappear on the next
// store access, while unexpired and running jobs survive — the other
// half of the long-running-daemon memory bound next to
// MaxJobsRetained.
func TestJobTTLEviction(t *testing.T) {
	b0, b1 := testWorkload(t, 4, 62)
	svc := New(Config{JobTTL: 30 * time.Millisecond})
	defer svc.Close()

	j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(j); err != nil {
		t.Fatal(err)
	}
	// Freshly finished: still pollable.
	if _, ok := svc.Job(j.ID()); !ok {
		t.Fatal("finished job evicted before its TTL")
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		if _, ok := svc.Job(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job survived well past its TTL")
		}
	}

	// TTL starts at finish time: a job that just finished is pollable
	// even though older jobs have already expired.
	j2, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(j2); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Job(j2.ID()); !ok {
		t.Error("just-finished job missing: TTL must start at finish time, not submit time")
	}

	// Negative TTL disables age-based eviction entirely.
	keep := New(Config{JobTTL: -1})
	defer keep.Close()
	k, err := keep.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(k); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := keep.Job(k.ID()); !ok {
		t.Error("JobTTL < 0 should disable TTL eviction")
	}
}

// MaxQueued bounds unfinished jobs: pending jobs pin their full
// request and are exempt from eviction, so the queue itself must cap.
func TestSubmitQueueBounded(t *testing.T) {
	b0, b1 := testWorkload(t, 3, 63)
	svc := New(Config{MaxConcurrent: 1, MaxQueued: 2})
	defer svc.Close()

	// Hold the only admission slot so submitted jobs stay pending.
	svc.sem <- struct{}{}
	j1, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)}); err == nil {
		t.Fatal("submission beyond MaxQueued accepted")
	}
	<-svc.sem // release admission; the pending jobs drain
	if err := waitDone(j1); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(j2); err != nil {
		t.Fatal(err)
	}
	// With the queue drained, submissions are accepted again.
	j3, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatalf("queue did not reopen after draining: %v", err)
	}
	if err := waitDone(j3); err != nil {
		t.Fatal(err)
	}
}

// A request without a Searcher must behave exactly like a Searcher
// built with no options — the pipeline defaults, gap-trigger
// pre-filter included.
func TestZeroOptionsMatchDefaults(t *testing.T) {
	b0, b1 := testWorkload(t, 8, 71)
	def, err := core.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	want := libraryBanks(t, def, b0, b1)
	svc := New(Config{})
	defer svc.Close()
	got, err := searchBanks(svc, nil, b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
}

// A status reply is built from one snapshot of the job, so a job that
// finishes while it is being polled is never reported half-way: no
// terminal state without its finish time, no "done" without the
// summary. Regression for the torn reply the bench counted as
// service.torn_status (state and timestamps were read under separate
// lock acquisitions). Run under -race in CI.
func TestJobStatusNeverTorn(t *testing.T) {
	b0, b1 := testWorkload(t, 1, 91)
	svc := New(Config{MaxConcurrent: 4})
	defer svc.Close()
	s := testSearcher(t)

	const pollers, jobsEach = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: s})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					st := jobStatus(j)
					terminal := st.State == string(JobDone) || st.State == string(JobFailed)
					if terminal && (st.Started == nil || st.Finished == nil) {
						t.Errorf("%s: state %s without started/finished: %+v", st.ID, st.State, st)
						return
					}
					if st.State == string(JobDone) &&
						(st.Alignments == nil || st.Hits == nil || st.Pairs == nil || st.WallMS == nil) {
						t.Errorf("%s: done without its summary: %+v", st.ID, st)
						return
					}
					if st.State == string(JobFailed) {
						t.Errorf("%s failed: %s", st.ID, st.Error)
						return
					}
					if terminal {
						break
					}
					runtime.Gosched() // poll tightly, but let the job have the CPU
				}
			}
		}()
	}
	wg.Wait()
}
