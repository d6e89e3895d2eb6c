package service

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// scanStore is the job store's eviction policy as a full scan: every
// access walks every entry, asks each whether it is done and evicts
// the finished ones past the cap (oldest first) or the TTL. JobStore
// must keep exactly what it keeps.
type scanStore struct {
	max   int
	ttl   time.Duration
	jobs  map[string]*Job
	order []string
}

func (s *scanStore) pruneLocked(now time.Time) {
	excess := len(s.order) - s.max
	if excess <= 0 && s.ttl <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		finished := false
		select {
		case <-j.Done():
			finished = true
		default:
		}
		if finished {
			if excess > 0 || (s.ttl > 0 && now.Sub(j.Snapshot().Finished) > s.ttl) {
				delete(s.jobs, id)
				if excess > 0 {
					excess--
				}
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func storeIDs(s *JobStore) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, len(s.order))
	for i, e := range s.order {
		ids[i] = e.id
	}
	return ids
}

// TestJobStoreMatchesScanOracle drives JobStore and the full-scan
// oracle through the same random interleavings of adds, finishes
// (some stamped in the past, as a job whose finish is seen late),
// lookups, sweeps and clock steps across the TTL, and checks after
// every step that both keep the same ids in the same order.
func TestJobStoreMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for round := 0; round < 300; round++ {
		maxJobs := 1 + rng.IntN(8)
		ttl := time.Duration(rng.IntN(3)) * 10 * time.Millisecond // 0: no TTL
		clock := time.Now()
		s := NewJobStore(maxJobs, ttl)
		s.now = func() time.Time { return clock }
		o := &scanStore{max: maxJobs, ttl: ttl, jobs: map[string]*Job{}}
		var ids []string
		var running []*Job
		for step := 0; step < 200; step++ {
			op := ""
			switch rng.IntN(6) {
			case 0, 1:
				id := fmt.Sprintf("job-%d", step)
				j := fakeJob()
				s.Add(id, j)
				o.jobs[id] = j
				o.order = append(o.order, id)
				o.pruneLocked(clock)
				ids, running = append(ids, id), append(running, j)
				op = "add " + id
			case 2:
				if len(running) == 0 {
					continue
				}
				k := rng.IntN(len(running))
				j := running[k]
				finish(j, clock.Add(-time.Duration(rng.IntN(25))*time.Millisecond))
				running = slices.Delete(running, k, k+1)
				op = "finish"
			case 3:
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.IntN(len(ids))]
				got, gotOK := s.Get(id)
				o.pruneLocked(clock)
				want, wantOK := o.jobs[id]
				if gotOK != wantOK || got != want {
					t.Fatalf("round %d step %d: Get(%s) = %v, %v; oracle %v, %v", round, step, id, got, gotOK, want, wantOK)
				}
				op = "get " + id
			case 4:
				s.Prune()
				o.pruneLocked(clock)
				op = "prune"
			case 5:
				clock = clock.Add(time.Duration(rng.IntN(12)) * time.Millisecond)
				op = "tick"
			}
			if got := storeIDs(s); !slices.Equal(got, o.order) {
				t.Fatalf("round %d (max %d, ttl %v) step %d, %s: store keeps %v, oracle %v",
					round, maxJobs, ttl, step, op, got, o.order)
			}
		}
	}
}

// polled is how many jobs the store's next access asks whether they
// are done: each access polls exactly the entries not yet seen
// finished.
func polled(s *JobStore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// TestJobStoreAccessCostsWhatItEvicts: with the store full of finished
// jobs, a lookup asks no job whether it is done, and an add past the
// cap asks only the new job.
func TestJobStoreAccessCostsWhatItEvicts(t *testing.T) {
	const maxJobs = 256
	s := NewJobStore(maxJobs, time.Hour)
	for i := 0; i <= maxJobs; i++ {
		s.Add(fmt.Sprintf("job-%d", i), finishedFakeJob(time.Now()))
	}
	n := 0
	for i := 0; i < 100; i++ {
		n += polled(s)
		if _, ok := s.Get(fmt.Sprintf("job-%d", i+1)); !ok {
			t.Fatalf("job-%d evicted from a store at its cap", i+1)
		}
	}
	if n != 0 {
		t.Errorf("100 lookups polled %d jobs; a full store of finished jobs should need none", n)
	}
	// The add polls the open entries it finds plus the new job.
	n = polled(s) + 1
	s.Add("job-new", finishedFakeJob(time.Now()))
	if n != 1 || polled(s) != 0 {
		t.Errorf("an add past the cap polled %d jobs, want 1 (the new one)", n)
	}
	if _, ok := s.Get("job-1"); ok {
		t.Error("the oldest finished job survived an add past the cap")
	}
}
