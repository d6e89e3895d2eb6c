package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seedblast/internal/gapped"
)

// TestRunStreamOrderIdentical pins the streaming contract: the
// concatenation of emitted batches is element-for-element the
// materialized Run output, for several shard sizes.
func TestRunStreamOrderIdentical(t *testing.T) {
	b0, b1 := testBanks(t, 12)
	req := testRequest(t, b0, b1)

	for _, cfg := range []Config{
		{},
		{ShardSize: 1},
		{ShardSize: 2},
		{ShardSize: 5},
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

// shardPeak is the most alignments any one shard of a run yields:
// a streaming run holds one shard's alignments at a time, so this is
// exactly its MaxBufferedMatches.
func shardPeak(as []gapped.Alignment, shardSize int) int {
	perShard := make(map[int]int)
	peak := 0
	for _, a := range as {
		id := int(a.Seq0) / shardSize
		perShard[id]++
		peak = max(peak, perShard[id])
	}
	return peak
}

// TestRunStreamPeakBuffer pins the memory win the streaming path
// exists for: on a multi-shard run the peak resident match buffer is
// exactly the largest shard's output, strictly below the materialized
// path's (which holds the entire output at once).
func TestRunStreamPeakBuffer(t *testing.T) {
	b0, b1 := testBanks(t, 16)
	req := testRequest(t, b0, b1)
	cfg := Config{ShardSize: 2}

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
	if want := shardPeak(ref.Alignments, cfg.ShardSize); out.Metrics.MaxBufferedMatches != want {
		t.Errorf("streaming peak buffer %d, want the largest shard's %d", out.Metrics.MaxBufferedMatches, want)
	}
}

// TestRunStreamWindowHoldsSlowConsumer pins that a consumer slower
// than the engine lets no finished shards pile up: the peak is exactly
// the largest shard's output, below the whole output, and the stream
// is still Run's output in order.
func TestRunStreamWindowHoldsSlowConsumer(t *testing.T) {
	b0, b1 := testBanks(t, 16)
	req := testRequest(t, b0, b1)
	cfg := Config{ShardSize: 1}
	ref := mustRun(t, cfg, testBackend(), req)
	peak := shardPeak(ref.Alignments, cfg.ShardSize)
	if peak >= len(ref.Alignments) {
		t.Fatalf("degenerate workload: one shard holds all %d alignments", len(ref.Alignments))
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
	if out.Metrics.MaxBufferedMatches != peak {
		t.Errorf("slow consumer: peak buffer %d, want the largest shard's %d", out.Metrics.MaxBufferedMatches, peak)
	}
}

// TestRunStreamEmitError pins that a failing consumer sinks the run,
// and that the run returns only after the look-ahead running the next
// shard has stopped.
func TestRunStreamEmitError(t *testing.T) {
	b0, b1 := testBanks(t, 6)
	req := testRequest(t, b0, b1)
	eng, err := New(Config{ShardSize: 1}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
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
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after emit error: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := eng.RunStream(context.Background(), req, nil); err == nil {
		t.Error("nil emit accepted")
	}
}
