// Command seedclusterd is the scatter-gather coordinator daemon: it
// speaks the same submit/wait/fetch/cancel HTTP+JSON job API as
// seedservd, but behind every job it partitions the subject bank into
// volumes, scatters one comparison per volume across a set of
// seedservd workers (each job carrying the full bank's search-space
// geometry, so per-volume E-values match the unpartitioned run), and
// gathers the merged, globally re-ranked alignments — streamed off
// each worker's NDJSON fetch path as its volume finishes, counted
// against the volume job's status, and k-way merged. Failed workers,
// short streams included, are retried around; /metrics exposes
// per-worker volume counts, failures and latency, retry counts and the
// last partition's volume skew.
//
//	# two workers, then the coordinator over them:
//	seedservd -addr 127.0.0.1:8845 &
//	seedservd -addr 127.0.0.1:8846 &
//	seedclusterd -addr :8844 \
//	  -workers http://127.0.0.1:8845,http://127.0.0.1:8846 \
//	  -strategy size -volumes 4
//
//	# with prebuilt volume seed indexes (cmd/seeddb) the workers skip
//	# step 1 entirely: build volumes under the SAME -strategy/-volumes
//	# the coordinator runs, give worker K the volumes K mod #workers
//	# (the coordinator's round-robin scatter preference), and every
//	# volume job fingerprints onto a pre-warmed cache entry:
//	seeddb build -proteins nr.fasta -out nr.seeddb -volumes 4 -strategy size
//	seedservd -addr 127.0.0.1:8845 -db nr.vol0.seeddb,nr.vol2.seeddb &
//	seedservd -addr 127.0.0.1:8846 -db nr.vol1.seeddb,nr.vol3.seeddb &
//
//	# exactly the seedservd client flow:
//	curl -s localhost:8844/v1/jobs -d '{"query":[{"id":"q0","seq":"MKV..."}],
//	  "subject":[{"id":"s0","seq":"MKI..."}],"options":{"maxEValue":10}}'
//	curl -s localhost:8844/v1/jobs/cjob-1?wait=30s
//	curl -s localhost:8844/v1/jobs/cjob-1/alignments
//	curl -sN localhost:8844/v1/jobs/cjob-1/alignments?stream=1
//	curl -s localhost:8844/v1/jobs/cjob-1/trace
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

	"seedblast/internal/cluster"
	"seedblast/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8844", "listen address")
		workers     = flag.String("workers", "", "comma-separated seedservd base URLs (required)")
		strategy    = flag.String("strategy", "size", "partitioning strategy: size (balanced residues) or seqcount (contiguous)")
		volumes     = flag.Int("volumes", 0, "volumes per request (0 = one per worker)")
		maxAttempts = flag.Int("max-attempts", 0, "distinct workers tried per volume before the request fails (0 = all)")
		fanOut      = flag.Int("fan-out", 0, "volume jobs in flight at once per request (0 = one per worker)")
		maxJobs     = flag.Int("max-jobs", 256, "finished jobs kept pollable before the oldest are dropped")
		jobTTL      = flag.Duration("job-ttl", 15*time.Minute, "finished jobs expire after this age (negative disables)")
		maxQueued   = flag.Int("max-queued", 1024, "unfinished jobs accepted before submissions get 503")
		waitWorkers = flag.Duration("wait-workers", 0, "wait up to this long for all workers to report healthy before serving")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (own listener, kept off the public API; empty disables)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	urls := splitWorkers(*workers)
	if len(urls) == 0 {
		fatal("at least one -workers URL is required")
	}
	part, err := cluster.PartitionerByName(*strategy)
	if err != nil {
		fatal("bad -strategy", "err", err)
	}
	coord, err := cluster.New(cluster.Config{
		Workers:     urls,
		Partitioner: part,
		Volumes:     *volumes,
		MaxAttempts: *maxAttempts,
		FanOut:      *fanOut,
	})
	if err != nil {
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
	if *pprofAddr != "" {
		bound, err := telemetry.StartPprof(*pprofAddr, logger)
		if err != nil {
			fatal("pprof listener failed", "addr", *pprofAddr, "err", err)
		}
		logger.Info("pprof listening", "addr", bound)
	}

	server := cluster.NewServer(coord, cluster.ServerConfig{MaxJobsRetained: *maxJobs, JobTTL: *jobTTL, MaxQueued: *maxQueued})
	defer server.Close()
	// Requests inherit the signal context, so a long-poll returns on
	// SIGINT instead of holding Shutdown to its timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewHandler(server),
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
		"workers", len(urls), "strategy", part.Name(), "volumes", coord.Config().Volumes)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve failed", "err", err)
	}
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
	return slog.New(h).With("daemon", "seedclusterd")
}

func splitWorkers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
