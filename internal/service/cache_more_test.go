package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
)

// TestCacheEvictSkipsInFlight is the regression test for the eviction
// bug: under capacity pressure the LRU trim used to evict entries
// whose build was still running, silently discarding the finished
// index so the next request for that key rebuilt. A burst against one
// cold key while other keys churn the cache must cost exactly one
// build for that key — including a request arriving after the burst.
func TestCacheEvictSkipsInFlight(t *testing.T) {
	c := newIndexCache(1) // tightest capacity: every insert pressures the LRU
	b := bank.GenerateProteins(bank.ProteinConfig{N: 3, MeanLen: 50, Seed: 8})
	opt := core.DefaultOptions()

	var buildsA atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce sync.Once
	slowA := func() (*index.Index, error) {
		buildsA.Add(1)
		startOnce.Do(func() { close(started) })
		<-release
		return index.BuildParallel(b, opt.Seed, opt.N, 1)
	}
	fast := func() (*index.Index, error) { return index.BuildParallel(b, opt.Seed, opt.N, 1) }

	const waiters = 6
	got := make([]*index.Index, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix, err := c.get(context.Background(), "A", slowA)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ix
		}(i)
	}
	<-started

	// Capacity pressure while A's build is in flight: distinct keys
	// push through a capacity-1 cache. None of these inserts may evict
	// the in-flight "A" entry.
	for _, k := range []string{"B", "C", "D"} {
		if _, err := c.get(context.Background(), k, fast); err != nil {
			t.Fatal(err)
		}
	}

	close(release)
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if got[i] != got[0] {
			t.Fatalf("waiter %d received a different index instance", i)
		}
	}

	// The finished build must have been retained: this request is a hit
	// on the surviving entry, not a rebuild.
	if _, err := c.get(context.Background(), "A", slowA); err != nil {
		t.Fatal(err)
	}
	if n := buildsA.Load(); n != 1 {
		t.Errorf("%d builds for key A under capacity pressure, want exactly 1", n)
	}

	// The cache still converges to capacity once builds settle.
	if _, err := c.get(context.Background(), "E", fast); err != nil {
		t.Fatal(err)
	}
	if st := c.snapshot(); st.Entries > 2 {
		t.Errorf("%d entries resident after pressure settled (cap 1, one may be over)", st.Entries)
	}
}

// TestCacheAllInFlightOverflows pins the escape valve: when every
// resident entry is mid-build the cache exceeds capacity rather than
// discard running work, and trims back once they finish.
func TestCacheAllInFlightOverflows(t *testing.T) {
	c := newIndexCache(1)
	b := bank.GenerateProteins(bank.ProteinConfig{N: 2, MeanLen: 40, Seed: 9})
	opt := core.DefaultOptions()

	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, k := range []string{"A", "B", "C"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			_, err := c.get(context.Background(), k, func() (*index.Index, error) {
				<-release
				return index.BuildParallel(b, opt.Seed, opt.N, 1)
			})
			if err != nil {
				t.Error(err)
			}
		}(k)
	}
	// Wait for all three to be resident and in flight.
	deadline := time.Now().Add(2 * time.Second)
	for c.snapshot().Entries < 3 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight entries never became resident")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	// A later insert trims the now-ready overflow back toward capacity.
	if _, err := c.get(context.Background(), "D", func() (*index.Index, error) {
		return index.BuildParallel(b, opt.Seed, opt.N, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.snapshot(); st.Entries > 2 {
		t.Errorf("%d entries resident after overflow settled", st.Entries)
	}
}

// TestCacheWaiterContextCancelled pins the ctx-bounded wait: a waiter
// whose context dies while a build is in flight gets ctx's error, its
// lookup is counted once, and the entry remains fully usable by later
// callers once the build lands.
func TestCacheWaiterContextCancelled(t *testing.T) {
	c := newIndexCache(2)
	b := bank.GenerateProteins(bank.ProteinConfig{N: 3, MeanLen: 50, Seed: 10})
	opt := core.DefaultOptions()

	started := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32
	slow := func() (*index.Index, error) {
		builds.Add(1)
		close(started)
		<-release
		return index.BuildParallel(b, opt.Seed, opt.N, 1)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.get(context.Background(), "K", slow); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := c.get(ctx, "K", slow); err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	st := c.snapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after one builder and one cancelled waiter: %+v, want 1 hit / 1 miss", st)
	}

	close(release)
	wg.Wait()

	// The abandoned wait must not have poisoned the entry: the next
	// caller hits the finished index without a rebuild.
	ix, err := c.get(context.Background(), "K", slow)
	if err != nil {
		t.Fatal(err)
	}
	if ix == nil {
		t.Fatal("later caller got a nil index")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1: a cancelled waiter must not trigger a rebuild", n)
	}
	if st := c.snapshot(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("final stats %+v, want 2 hits / 1 miss (each lookup counted exactly once)", st)
	}
}
