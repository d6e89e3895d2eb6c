package service

import (
	"context"
	"testing"
	"time"
)

// fakeJob is a bare Job for store-level tests: running until finish.
func fakeJob() *Job { return &Job{done: make(chan struct{})} }

// finish ends a fakeJob at the given time, in the order the service
// does: the finish time is set before done closes.
func finish(j *Job, at time.Time) {
	j.snap = JobSnapshot{State: JobDone, Finished: at}
	close(j.done)
}

func finishedFakeJob(at time.Time) *Job {
	j := fakeJob()
	finish(j, at)
	return j
}

// TestJobStoreBackgroundSweep is the regression test for idle-daemon
// retention: expired finished jobs must disappear with NO store
// accesses at all — the background sweeper alone evicts them.
func TestJobStoreBackgroundSweep(t *testing.T) {
	s := NewJobStore(100, 20*time.Millisecond)
	s.StartSweeper(5 * time.Millisecond)
	defer s.StopSweeper()

	s.Add("j1", finishedFakeJob(time.Now()))
	s.Add("j2", finishedFakeJob(time.Now()))

	// Observe via len(), which deliberately does not prune: any
	// eviction seen here was the sweeper's doing.
	deadline := time.Now().Add(2 * time.Second)
	for s.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle store still retains %d expired jobs; sweeper never evicted", s.len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobStoreSweeperShutdown pins the clean-shutdown contract: after
// StopSweeper returns, no further sweeps run; Stop is idempotent and
// Start after Stop works again.
func TestJobStoreSweeperShutdown(t *testing.T) {
	s := NewJobStore(100, 10*time.Millisecond)
	s.StartSweeper(2 * time.Millisecond)
	s.StopSweeper()
	s.StopSweeper() // idempotent

	// With the sweeper stopped, a job added fresh (Add prunes, but the
	// job is unexpired at that point) then left to expire sits
	// untouched: neither len() nor anything else prunes it.
	s.Add("stale", finishedFakeJob(time.Now()))
	time.Sleep(30 * time.Millisecond)
	if s.len() != 1 {
		t.Fatal("job evicted after StopSweeper returned")
	}

	// Restart: the sweeper picks the stale job up again.
	s.StartSweeper(2 * time.Millisecond)
	defer s.StopSweeper()
	deadline := time.Now().Add(2 * time.Second)
	for s.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted sweeper never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobStoreSweeperDisabled(t *testing.T) {
	s := NewJobStore(100, 10*time.Millisecond)
	s.StartSweeper(0)  // no-op
	s.StartSweeper(-1) // no-op
	s.StopSweeper()    // nothing to stop
	s.Add("stale", finishedFakeJob(time.Now()))
	time.Sleep(25 * time.Millisecond)
	if s.len() != 1 {
		t.Fatal("disabled sweeper still evicted")
	}
}

// TestServiceIdleTTLSweep drives the same guarantee through the
// Service: a finished job on an otherwise idle daemon ages out without
// any Job/Jobs call arriving.
func TestServiceIdleTTLSweep(t *testing.T) {
	b0, b1 := testWorkload(t, 3, 64)
	svc := New(Config{JobTTL: 25 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	defer svc.Close()

	j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for svc.store.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle service retained an expired job; background sweep missing")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDefaultSweepInterval(t *testing.T) {
	cases := []struct {
		ttl, want time.Duration
	}{
		{0, -1},
		{-time.Second, -1},
		{10 * time.Millisecond, time.Second}, // clamped up
		{10 * time.Second, 5 * time.Second},  // ttl/2
		{10 * time.Hour, time.Minute},        // clamped down
		{15 * time.Minute, time.Minute},      // the daemon default
	}
	for _, c := range cases {
		if got := defaultSweepInterval(c.ttl); got != c.want {
			t.Errorf("defaultSweepInterval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}
