package service

import (
	"errors"
	"fmt"
	"sync"

	"seedblast/internal/index"
)

// diskRegistry maps index-build fingerprints to seeddb files on local
// disk. It is the service's second cache tier: a subject-index cache
// miss whose fingerprint is registered loads the prebuilt index from
// disk (mmap, shared pages, no step-1 pass) instead of rebuilding.
type diskRegistry struct {
	mu   sync.Mutex
	byFP map[string]string // fingerprint → path
}

// register records path under its stamped fingerprint, read from the
// file header without loading the data sections.
func (d *diskRegistry) register(path string) (string, error) {
	info, err := index.Inspect(path)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.byFP == nil {
		d.byFP = make(map[string]string)
	}
	d.byFP[info.Fingerprint] = path
	d.mu.Unlock()
	return info.Fingerprint, nil
}

// lookup returns the registered path for a fingerprint.
func (d *diskRegistry) lookup(fp string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.byFP[fp]
	return p, ok
}

// PreloadDB registers a seeddb file and loads it into the subject-index
// cache immediately — the daemon-start warm path behind seedservd -db.
// The first request against the stored subject is a cache hit; should
// the entry later be evicted, the registration still serves misses from
// disk.
func (s *Service) PreloadDB(path string) (string, error) {
	fp, err := s.disk.register(path)
	if err != nil {
		return "", err
	}
	ix, err := index.Open(path)
	if err != nil {
		return "", err
	}
	if got := ix.Fingerprint(); got != fp {
		err := fmt.Errorf("service: %s: loaded fingerprint %.24s… does not match header stamp %.24s…", path, got, fp)
		if cerr := ix.Close(); cerr != nil {
			// A failed munmap leaks address space; join it so the
			// caller sees both failures.
			err = errors.Join(err, cerr)
		}
		return "", err
	}
	s.cache.put(fp, ix)
	return fp, nil
}

// loadFromDisk serves a cache miss from the registry when the
// fingerprint has a seeddb behind it. The bool reports whether the
// load was attempted; a failed load falls back to build (a stale or
// corrupt file must not take the subject down — the rebuild path is
// always correct).
func (s *Service) loadFromDisk(fingerprint string) (*index.Index, bool) {
	path, ok := s.disk.lookup(fingerprint)
	if !ok {
		return nil, false
	}
	ix, err := index.Open(path)
	if err != nil {
		return nil, false
	}
	if ix.Fingerprint() != fingerprint {
		// The file changed since registration; its stamp no longer
		// matches the requested key. Rebuild rather than serve another
		// bank's index — but a failed munmap of the stale mapping
		// must not stay invisible: it leaks address space on every
		// churned load.
		if cerr := ix.Close(); cerr != nil {
			s.log().Warn("closing stale seeddb", "path", path, "err", cerr)
		}
		return nil, false
	}
	s.cache.diskLoad()
	return ix, true
}
