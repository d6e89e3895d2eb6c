// Package keep holds the large buffers of finished searches for the
// next one, so that a warm search neither allocates them nor has the
// runtime fault in and clear fresh pages for them. Unlike a sync.Pool,
// a Store survives garbage collections.
//
// A Store is bounded by the bytes it keeps, not by a count: a search's
// hits and seeds take the same bytes however many workers cut them.
// (internal/gapped's Aligner store is bounded by GOMAXPROCS instead:
// it keeps one Aligner per worker, sized by the longest query.)
package keep

import (
	"slices"
	"sync"
	"unsafe"
)

// Budget bounds the bytes one Store keeps, on any core count. The
// largest buffers the benchmark's workloads hand over are a
// homolog_full search's: 3.9 MB of step-2 chunks (16-byte hits, two
// chunks of 1.9–2.0 MB at two workers) and 2.4 MB of step-3 seeds
// (12-byte); two volume searches of cluster_homolog at once take the
// same. Budget holds twice that, so two such searches at once both
// find their buffers; a buffer above it, made for a search far beyond
// the usual, is left to the collector.
const Budget = 8 << 20

// Store keeps buffers of one element type. The zero value is empty
// and ready to use.
type Store[T any] struct {
	mu    sync.Mutex
	free  [][]T
	bytes uintptr // Σ size(free)
}

// size returns the bytes of b's backing array.
func size[T any](b []T) uintptr {
	var t T
	return uintptr(cap(b)) * unsafe.Sizeof(t)
}

// Get returns a buffer of length n whose contents are not cleared: the
// largest kept buffer when it has room for n, else a new one.
func (s *Store[T]) Get(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	for i, b := range s.free {
		if cap(b) >= n && (best < 0 || cap(b) > cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	b := s.free[best]
	s.free, s.bytes = slices.Delete(s.free, best, best+1), s.bytes-size(b)
	return b[:n]
}

// Put keeps b for a later Get, dropping the oldest kept buffers when
// the store would pass Budget. A buffer above Budget is not kept.
func (s *Store[T]) Put(b []T) {
	n := size(b)
	if n == 0 || n > Budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.bytes+n > Budget {
		s.bytes -= size(s.free[0])
		s.free = slices.Delete(s.free, 0, 1)
	}
	s.free, s.bytes = append(s.free, b[:0]), s.bytes+n
}
