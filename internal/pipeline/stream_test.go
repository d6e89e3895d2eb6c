package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"seedblast/internal/gapped"
)

// TestRunStreamOrderIdentical pins the streaming contract: the
// concatenation of emitted batches is element-for-element the
// materialized Run output, for several shard sizes and worker counts.
func TestRunStreamOrderIdentical(t *testing.T) {
	b0, b1 := testBanks(t, 12)
	req := testRequest(t, b0, b1)

	for _, cfg := range []Config{
		{},
		{ShardSize: 1, InFlight: 3, Step2Workers: 2, Step3Workers: 2},
		{ShardSize: 2, InFlight: 2, Step2Workers: 3, Step3Workers: 3},
		{ShardSize: 5, InFlight: 1, Step2Workers: 1, Step3Workers: 1},
	} {
		ref := mustRun(t, cfg, testBackend(), req)
		if len(ref.Alignments) == 0 {
			t.Fatal("degenerate workload: no alignments")
		}

		eng, err := New(cfg, testBackend())
		if err != nil {
			t.Fatal(err)
		}
		var streamed []gapped.Alignment
		batches := 0
		out, err := eng.RunStream(context.Background(), req, func(as []gapped.Alignment) error {
			batches++
			streamed = append(streamed, as...)
			return nil
		})
		if err != nil {
			t.Fatalf("shard=%d: %v", cfg.ShardSize, err)
		}
		if out.Alignments != nil {
			t.Errorf("shard=%d: streaming run materialized %d alignments", cfg.ShardSize, len(out.Alignments))
		}
		if batches != out.Metrics.Shards {
			t.Errorf("shard=%d: %d batches emitted, want one per shard (%d)",
				cfg.ShardSize, batches, out.Metrics.Shards)
		}
		if !reflect.DeepEqual(streamed, ref.Alignments) {
			t.Errorf("shard=%d: streamed alignments diverge from Run (got %d, want %d)",
				cfg.ShardSize, len(streamed), len(ref.Alignments))
		}
		if out.Hits != ref.Hits || out.Pairs != ref.Pairs || out.GappedWork != ref.GappedWork {
			t.Errorf("shard=%d: streaming counters diverge", cfg.ShardSize)
		}
	}
}

// windowBound is the most alignments any window consecutive shards
// of a run hold: with window = Step2Workers + Step3Workers, the
// ceiling on a streaming run's MaxBufferedMatches, whatever order the
// shards finish in.
func windowBound(as []gapped.Alignment, shardSize, window int) int {
	var perShard []int
	for _, a := range as {
		id := int(a.Seq0) / shardSize
		for len(perShard) <= id {
			perShard = append(perShard, 0)
		}
		perShard[id]++
	}
	bound := 0
	for i := range perShard {
		sum := 0
		for _, n := range perShard[i:min(i+window, len(perShard))] {
			sum += n
		}
		bound = max(bound, sum)
	}
	return bound
}

// TestRunStreamPeakBuffer pins the memory win the streaming path
// exists for: on a multi-shard run the peak resident match buffer is
// bounded by the window and so strictly below the materialized path's
// (which holds the entire output at once).
func TestRunStreamPeakBuffer(t *testing.T) {
	b0, b1 := testBanks(t, 16)
	req := testRequest(t, b0, b1)
	cfg := Config{ShardSize: 2, InFlight: 2, Step2Workers: 2, Step3Workers: 1}

	ref := mustRun(t, cfg, testBackend(), req)
	if got, want := ref.Metrics.MaxBufferedMatches, len(ref.Alignments); got != want {
		t.Fatalf("materialized peak buffer %d, want the whole output %d", got, want)
	}

	eng, err := New(cfg, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	out, err := eng.RunStream(context.Background(), req, func(as []gapped.Alignment) error {
		total += len(as)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(ref.Alignments) {
		t.Fatalf("streamed %d alignments, want %d", total, len(ref.Alignments))
	}
	if out.Metrics.MaxBufferedMatches >= ref.Metrics.MaxBufferedMatches {
		t.Errorf("streaming peak buffer %d, want below materialized %d",
			out.Metrics.MaxBufferedMatches, ref.Metrics.MaxBufferedMatches)
	}
	window := cfg.Step2Workers + cfg.Step3Workers
	if bound := windowBound(ref.Alignments, cfg.ShardSize, window); out.Metrics.MaxBufferedMatches > bound {
		t.Errorf("streaming peak buffer %d above the %d-shard window's %d",
			out.Metrics.MaxBufferedMatches, window, bound)
	}
}

// TestRunStreamWindowHoldsSlowConsumer pins that a consumer slower
// than the engine stalls dispatch instead of letting finished shards
// pile up: the peak stays within the window's worth of shards, below
// the whole output, and the stream is still Run's output in order.
func TestRunStreamWindowHoldsSlowConsumer(t *testing.T) {
	b0, b1 := testBanks(t, 16)
	req := testRequest(t, b0, b1)
	cfg := Config{ShardSize: 1, InFlight: 1, Step2Workers: 2, Step3Workers: 1}
	ref := mustRun(t, cfg, testBackend(), req)
	window := cfg.Step2Workers + cfg.Step3Workers
	bound := windowBound(ref.Alignments, cfg.ShardSize, window)
	if bound >= len(ref.Alignments) {
		t.Fatalf("degenerate workload: a %d-shard window holds all %d alignments", window, len(ref.Alignments))
	}

	eng, err := New(cfg, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	var streamed []gapped.Alignment
	out, err := eng.RunStream(context.Background(), req, func(as []gapped.Alignment) error {
		time.Sleep(5 * time.Millisecond)
		streamed = append(streamed, as...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, ref.Alignments) {
		t.Errorf("streamed alignments diverge from Run (got %d, want %d)", len(streamed), len(ref.Alignments))
	}
	if out.Metrics.MaxBufferedMatches > bound {
		t.Errorf("slow consumer: peak buffer %d above the %d-shard window's %d",
			out.Metrics.MaxBufferedMatches, window, bound)
	}
}

// TestRunStreamEmitError pins that a failing consumer sinks the run.
func TestRunStreamEmitError(t *testing.T) {
	b0, b1 := testBanks(t, 6)
	req := testRequest(t, b0, b1)
	eng, err := New(Config{ShardSize: 1}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("consumer gone")
	out, err := eng.RunStream(context.Background(), req, func([]gapped.Alignment) error {
		return sinkErr
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if out == nil {
		t.Fatal("failed run returned no metrics")
	}
	if _, err := eng.RunStream(context.Background(), req, nil); err == nil {
		t.Error("nil emit accepted")
	}
}
