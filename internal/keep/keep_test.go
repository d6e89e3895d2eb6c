package keep

import (
	"sync"
	"testing"
)

// TestStoreKeepsLargestWithRoom pins Get's choice and Put's bounds: Get
// takes the largest kept buffer when it has room for n, else makes one;
// Put drops a buffer above Budget, and the oldest while the kept bytes
// would pass it.
func TestStoreKeepsLargestWithRoom(t *testing.T) {
	var s Store[uint64]
	small, large := make([]uint64, 8), make([]uint64, 64)
	s.Put(small)
	s.Put(large)
	if b := s.Get(100); cap(b) != 100 || len(b) != 100 {
		t.Fatalf("Get(100) with no buffer that large: len %d cap %d, want a new one of 100", len(b), cap(b))
	}
	if b := s.Get(4); &b[:1][0] != &large[0] || len(b) != 4 {
		t.Fatalf("Get(4) did not take the largest kept buffer")
	}
	if b := s.Get(0); &b[:1][0] != &small[0] || len(b) != 0 {
		t.Fatalf("Get(0) did not take the one buffer left")
	}
	if s.bytes != 0 {
		t.Fatalf("an empty store counts %d bytes", s.bytes)
	}

	s.Put(make([]uint64, Budget/8+1))
	s.Put(nil)
	if len(s.free) != 0 {
		t.Fatalf("kept %d buffers, want none above Budget or empty", len(s.free))
	}
	quarter := Budget / 8 / 4 // elements in a quarter of Budget
	for i := 1; i <= 6; i++ {
		s.Put(make([]uint64, quarter+i))
	}
	// Each buffer is a little over a quarter of Budget: three fit.
	if len(s.free) != 3 || cap(s.free[0]) != quarter+4 || s.bytes != uintptr(3*quarter+4+5+6)*8 {
		t.Fatalf("kept %d buffers (%d bytes) from cap %d, want the newest three", len(s.free), s.bytes, cap(s.free[0]))
	}
	s.Put(make([]uint64, 2*quarter))
	if len(s.free) != 2 || s.bytes > Budget {
		t.Fatalf("kept %d buffers (%d bytes) after a half-Budget one, want 2 within %d", len(s.free), s.bytes, Budget)
	}
}

// TestStoreConcurrent has goroutines take, write and return buffers at
// once; under -race it checks that no buffer is handed to two of them.
func TestStoreConcurrent(t *testing.T) {
	var s Store[int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := s.Get(1 + (g*i)%50)
				for j := range b {
					b[j] = g
				}
				for j := range b {
					if b[j] != g {
						t.Errorf("goroutine %d: a buffer it held was written by %d", g, b[j])
						return
					}
				}
				s.Put(b)
			}
		}()
	}
	wg.Wait()
}
