package service

import (
	"sync"
	"time"
)

// JobStore is the service's bounded, submission-ordered job index.
// Finished entries are evicted beyond a count cap (oldest first) and
// past a TTL. The policy runs on every access, and — because an idle
// daemon gets no accesses, which would otherwise pin dead jobs and
// their alignment payloads indefinitely — on a background sweep
// (StartSweeper). Queued and running entries are never evicted. Safe
// for concurrent use.
//
// An access costs what it can evict, not the store's size: each entry
// is polled for completion only until it is seen finished, and the
// store walks its entries only when the cap is exceeded (stopping once
// it no longer is) or when the oldest finish time it has seen is past
// the TTL.
type JobStore struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	now   func() time.Time // time.Now; a test's clock in the oracle test
	jobs  map[string]*storeEntry
	order []*storeEntry // submission order
	open  []*storeEntry // not yet seen finished, in no particular order
	// oldest is at or before the finish time of every retained entry
	// seen finished; valid when anyFinished.
	oldest      time.Time
	anyFinished bool

	sweepStop chan struct{}
	sweepDone chan struct{}
}

type storeEntry struct {
	id       string
	job      *Job
	finished bool
	at       time.Time // the job's finish time, once finished
}

// NewJobStore returns a store evicting finished jobs beyond maxJobs
// and older than ttl. ttl <= 0 disables age eviction — Config
// resolves its "zero means default" semantics before calling this.
func NewJobStore(maxJobs int, ttl time.Duration) *JobStore {
	return &JobStore{max: maxJobs, ttl: ttl, now: time.Now, jobs: make(map[string]*storeEntry)}
}

// Add inserts a job under id and prunes.
func (s *JobStore) Add(id string, j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &storeEntry{id: id, job: j}
	s.jobs[id] = e
	s.order = append(s.order, e)
	s.open = append(s.open, e)
	s.pruneLocked()
}

// Get returns the job with the given id. A finished job past its TTL
// is gone: expiry is enforced on every lookup.
func (s *JobStore) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	e, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return e.job, true
}

// All returns the retained jobs in submission order.
func (s *JobStore) All() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	out := make([]*Job, 0, len(s.order))
	for _, e := range s.order {
		out = append(out, e.job)
	}
	return out
}

// Prune applies the eviction policy now (the service calls it when a
// job finishes, so completed results age out even without lookups
// arriving first).
func (s *JobStore) Prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
}

// StartSweeper runs the eviction policy every interval until
// StopSweeper is called, so an idle daemon sheds expired jobs (and
// their retained alignments) without waiting for the next request to
// happen by. interval <= 0 or an already-running sweeper is a no-op.
func (s *JobStore) StartSweeper(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.sweepStop != nil {
		s.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.sweepStop, s.sweepDone = stop, done
	s.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Prune()
			case <-stop:
				return
			}
		}
	}()
}

// StopSweeper stops the background sweep and waits for it to exit. It
// is safe to call with no sweeper running, and more than once.
func (s *JobStore) StopSweeper() {
	s.mu.Lock()
	stop, done := s.sweepStop, s.sweepDone
	s.sweepStop, s.sweepDone = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// len reports the retained job count without pruning — the observer
// the sweeper tests watch to see eviction happen with no access
// traffic.
func (s *JobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// pruneLocked drops finished jobs beyond the count cap (oldest first)
// and finished jobs older than the TTL. Caller holds s.mu.
func (s *JobStore) pruneLocked() {
	open := s.open[:0]
	for _, e := range s.open {
		select {
		case <-e.job.done:
			// Finished is set before done closes, so it is stable here.
			e.finished, e.at = true, e.job.Snapshot().Finished
			if !s.anyFinished || e.at.Before(s.oldest) {
				s.oldest, s.anyFinished = e.at, true
			}
		default:
			open = append(open, e)
		}
	}
	clear(s.open[len(open):])
	s.open = open

	excess := len(s.order) - s.max
	now := s.now()
	// Every finished entry finished at or after s.oldest, so none is
	// past the TTL unless s.oldest is.
	expiring := s.ttl > 0 && s.anyFinished && now.Sub(s.oldest) > s.ttl
	if excess <= 0 && !expiring {
		return
	}
	if expiring {
		s.anyFinished = false // recomputed below over the entries kept
	}
	kept := s.order[:0]
	i := 0
	for ; i < len(s.order) && (excess > 0 || expiring); i++ {
		e := s.order[i]
		if e.finished {
			if excess > 0 || (s.ttl > 0 && now.Sub(e.at) > s.ttl) {
				delete(s.jobs, e.id)
				excess--
				continue
			}
			if expiring && (!s.anyFinished || e.at.Before(s.oldest)) {
				s.oldest, s.anyFinished = e.at, true
			}
		}
		kept = append(kept, e)
	}
	n := len(kept) + copy(s.order[len(kept):], s.order[i:])
	clear(s.order[n:])
	s.order = s.order[:n]
}
