// Command seedservd serves the seed-based comparison pipeline over
// HTTP+JSON: clients submit bank-vs-bank or protein-vs-genome jobs,
// wait on their status and fetch alignments; prebuilt subject indexes are
// cached and shared across requests and a worker pool bounds how many
// comparisons run at once.
//
//	seedservd -addr :8844 -max-concurrent 4 -cache-entries 16
//
//	# serve a prebuilt seed index (cmd/seeddb) so step 1 is never
//	# recomputed — the cache is pre-warmed at start and misses for the
//	# stored fingerprint reload from disk:
//	seeddb build -proteins nr.fasta -out nr.seeddb
//	seedservd -db nr.seeddb
//
//	# submit, wait, fetch (?wait=30s holds the status reply until the
//	# job ends; add ?stream=1 for chunked NDJSON — one alignment per
//	# line, decoded incrementally by service.Client.StreamAlignments):
//	curl -s localhost:8844/v1/jobs -d '{"query":[{"id":"q0","seq":"MKV..."}],
//	  "subject":[{"id":"s0","seq":"MKI..."}],"options":{"maxEValue":10}}'
//	curl -s localhost:8844/v1/jobs/job-1?wait=30s
//	curl -s localhost:8844/v1/jobs/job-1/alignments
//	curl -sN localhost:8844/v1/jobs/job-1/alignments?stream=1
//	curl -s localhost:8844/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", ":8844", "listen address")
		maxConcurrent = flag.Int("max-concurrent", 2, "comparisons admitted at once (worker pool size)")
		cacheEntries  = flag.Int("cache-entries", 8, "subject-index LRU cache capacity")
		maxJobs       = flag.Int("max-jobs", 256, "finished jobs kept pollable before the oldest are dropped")
		jobTTL        = flag.Duration("job-ttl", 15*time.Minute, "finished jobs expire after this age (negative disables)")
		maxQueued     = flag.Int("max-queued", 1024, "unfinished jobs accepted before submissions are rejected")
		dbPaths       = flag.String("db", "", "comma-separated seeddb files (cmd/seeddb) to pre-warm the subject-index cache with; cache misses for their fingerprints reload from disk instead of rebuilding")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (own listener, kept off the public API; empty disables)")
		logJSON       = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	svc := service.New(service.Config{
		MaxConcurrent:   *maxConcurrent,
		CacheEntries:    *cacheEntries,
		MaxJobsRetained: *maxJobs,
		JobTTL:          *jobTTL,
		MaxQueued:       *maxQueued,
		Logger:          logger,
	})
	for _, path := range strings.Split(*dbPaths, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		fp, err := svc.PreloadDB(path)
		if err != nil {
			fatal("preload failed", "path", path, "err", err)
		}
		logger.Info("preloaded seeddb", "path", path, "fingerprint", fp[:16])
	}
	if *pprofAddr != "" {
		bound, err := telemetry.StartPprof(*pprofAddr, logger)
		if err != nil {
			fatal("pprof listener failed", "addr", *pprofAddr, "err", err)
		}
		logger.Info("pprof listening", "addr", bound)
	}
	// Requests inherit the signal context, so a long-poll returns on
	// SIGINT instead of holding Shutdown to its timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	logger.Info("listening", "addr", *addr,
		"maxConcurrent", svc.Config().MaxConcurrent, "cacheEntries", svc.Config().CacheEntries)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve failed", "err", err)
	}
	svc.Close()
}

// newLogger builds the daemon's structured logger: text for humans at
// a terminal, JSON when a collector ingests the stream.
func newLogger(json bool) *slog.Logger {
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("daemon", "seedservd")
}
