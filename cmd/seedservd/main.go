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
//
// With -workers the daemon is the scatter-gather coordinator over other
// seedservd workers, behind the same job API: it cuts each job's subject
// bank into volumes, runs each on a worker against the full bank's
// search space (so E-values match an unpartitioned run), retries a
// failed volume once on each other worker and k-way merges the streamed
// results. /metrics adds the seedclusterd_* families. It reads no index,
// so -db, -max-concurrent and -cache-entries are rejected.
//
//	seedservd -addr :8844 -wait-workers 10s -strategy size -volumes 4 \
//	  -workers http://127.0.0.1:8845,http://127.0.0.1:8846
//
//	# prebuilt volume indexes (seeddb build -volumes 4 -strategy size)
//	# go to worker K for volumes K mod #workers, its scatter preference:
//	seedservd -addr 127.0.0.1:8845 -db nr.vol0.seeddb,nr.vol2.seeddb
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

	"seedblast/internal/cluster"
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
		workers       = flag.String("workers", "", "comma-separated seedservd base URLs: run as the scatter-gather coordinator over them")
		strategy      = flag.String("strategy", "size", "with -workers, the partitioning strategy: size (balanced residues) or seqcount (contiguous)")
		volumes       = flag.Int("volumes", 0, "with -workers, volumes per request (0 = one per worker)")
		waitWorkers   = flag.Duration("wait-workers", 0, "with -workers, wait up to this long for all workers to report healthy before serving")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (own listener, kept off the public API; empty disables)")
		logJSON       = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	cfg := service.Config{
		MaxConcurrent:   *maxConcurrent,
		CacheEntries:    *cacheEntries,
		MaxJobsRetained: *maxJobs,
		JobTTL:          *jobTTL,
		MaxQueued:       *maxQueued,
		Logger:          logger,
	}
	var coord *cluster.Coordinator
	if urls := splitList(*workers); len(urls) > 0 {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "db", "max-concurrent", "cache-entries":
				fatal("-" + f.Name + " configures in-process search; a coordinator (-workers) has none")
			}
		})
		part, err := cluster.PartitionerByName(*strategy)
		if err != nil {
			fatal("bad -strategy", "err", err)
		}
		if coord, err = cluster.New(cluster.Config{Workers: urls, Partitioner: part, Volumes: *volumes}); err != nil {
			fatal("coordinator setup failed", "err", err)
		}
		if *waitWorkers > 0 {
			wctx, wcancel := context.WithTimeout(context.Background(), *waitWorkers)
			err := coord.WaitHealthy(wctx)
			wcancel()
			if err != nil {
				fatal("workers not healthy", "err", err)
			}
		}
		cfg.Run = coord.Run
	}
	svc := service.New(cfg)
	if coord != nil {
		svc.Registry().Include(coord.Registry())
	}
	for _, path := range splitList(*dbPaths) {
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

	logger.Info("listening", "addr", *addr, "coordinator", coord != nil)
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

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
