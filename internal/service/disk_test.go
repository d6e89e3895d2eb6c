package service

import (
	"os"
	"path/filepath"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
)

// writeSubjectDB builds the subject's index under the request options
// and writes its seeddb, returning the path.
func writeSubjectDB(t *testing.T, subject *bank.Bank) string {
	t.Helper()
	opt := core.DefaultOptions()
	ix, err := index.BuildParallel(subject, opt.Seed, opt.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "subject.seeddb")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPreloadDBWarmsCache pins the seedservd -db contract: after
// PreloadDB, the very first request against the stored subject is a
// cache hit (zero misses, zero builds) and its result is bit-identical
// to the build path.
func TestPreloadDBWarmsCache(t *testing.T) {
	b0, b1 := testWorkload(t, 5, 81)
	path := writeSubjectDB(t, b1)

	ref := libraryBanks(t, testSearcher(t), b0, b1)

	svc := New(Config{})
	defer svc.Close()
	fp, err := svc.PreloadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if want := index.Fingerprint(b1, opt.Seed, opt.N); fp != want {
		t.Fatalf("preloaded fingerprint %.24s… does not key the request's %.24s…", fp, want)
	}

	res, err := searchBanks(svc, testSearcher(t), b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, res)

	st := svc.Metrics()
	if st.Cache.Misses != 0 || st.Cache.Hits != 1 {
		t.Errorf("first request after preload: %+v, want 1 hit / 0 misses", st.Cache)
	}
}

// TestDiskFallbackAfterEviction pins the second tier: once the
// preloaded entry is evicted by cache churn, the next request for the
// known fingerprint reloads from disk (DiskLoads grows) instead of
// rebuilding, and still matches the build path bit-for-bit.
func TestDiskFallbackAfterEviction(t *testing.T) {
	b0, b1 := testWorkload(t, 5, 82)
	path := writeSubjectDB(t, b1)

	svc := New(Config{CacheEntries: 1})
	defer svc.Close()
	if _, err := svc.PreloadDB(path); err != nil {
		t.Fatal(err)
	}

	// Churn the capacity-1 cache with a different subject: the
	// preloaded entry is the LRU and gets evicted.
	other0, other1 := testWorkload(t, 4, 83)
	if _, err := searchBanks(svc, testSearcher(t), other0, other1); err != nil {
		t.Fatal(err)
	}

	ref := libraryBanks(t, testSearcher(t), b0, b1)
	res, err := searchBanks(svc, testSearcher(t), b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, res)

	st := svc.Metrics()
	if st.Cache.DiskLoads != 1 {
		t.Errorf("disk loads = %d, want 1 (miss on a registered fingerprint must reload, not rebuild)", st.Cache.DiskLoads)
	}
}

// TestRegisterDBServesColdMiss pins the disk registry alone (no
// preload): the first request is a miss served from disk.
func TestRegisterDBServesColdMiss(t *testing.T) {
	b0, b1 := testWorkload(t, 5, 84)
	path := writeSubjectDB(t, b1)

	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.disk.register(path); err != nil {
		t.Fatal(err)
	}
	res, err := searchBanks(svc, testSearcher(t), b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	ref := libraryBanks(t, testSearcher(t), b0, b1)
	assertSameResult(t, ref, res)
	if st := svc.Metrics(); st.Cache.DiskLoads != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 miss served by 1 disk load", st.Cache)
	}
}

// TestDiskFallbackSurvivesMissingFile pins resilience: a registered
// file that disappears falls back to the rebuild path (correct
// results, no error), rather than failing requests.
func TestDiskFallbackSurvivesMissingFile(t *testing.T) {
	b0, b1 := testWorkload(t, 4, 85)
	path := writeSubjectDB(t, b1)

	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.disk.register(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	res, err := searchBanks(svc, testSearcher(t), b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	ref := libraryBanks(t, testSearcher(t), b0, b1)
	assertSameResult(t, ref, res)
	if st := svc.Metrics(); st.Cache.DiskLoads != 0 {
		t.Errorf("disk loads = %d for a vanished file, want 0 (rebuild fallback)", st.Cache.DiskLoads)
	}
}

func TestRegisterDBErrors(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.disk.register(filepath.Join(t.TempDir(), "missing.seeddb")); err == nil {
		t.Error("the disk registry accepted a missing file")
	}
	junk := filepath.Join(t.TempDir(), "junk.seeddb")
	if err := os.WriteFile(junk, []byte("not a seeddb file at all, just some bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.disk.register(junk); err == nil {
		t.Error("the disk registry accepted a non-seeddb file")
	}
	if _, err := svc.PreloadDB(junk); err == nil {
		t.Error("PreloadDB accepted a non-seeddb file")
	}
}
