package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"entityres/internal/datagen"
	"entityres/internal/entity"
)

// The benchmark workload is matching-dominated (the phase the worker pool
// accelerates): a datagen people collection under token blocking produces
// tens of thousands of distinct comparisons, each costing a tokenization +
// Jaccard evaluation. On a single core the parallel run pays only the
// streaming/channel overhead; at 4+ cores the worker pool yields the
// multi-× speedup the sharded design targets (the serial residue — the
// dedup producer — is a few percent of the per-pair match cost).

var (
	benchOnce sync.Once
	benchColl *entity.Collection
)

func benchCollection() *entity.Collection {
	benchOnce.Do(func() {
		c, _, err := datagen.GenerateDirty(datagen.Config{
			Entities:      1200,
			Seed:          42,
			MaxDuplicates: 2,
		})
		if err != nil {
			panic(err)
		}
		benchColl = c
	})
	return benchColl
}

// benchmarkPipeline times batchConfig at the given worker count.
func benchmarkPipeline(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("pipeline benchmarks are skipped in short mode")
	}
	c := benchCollection()
	cfg := batchConfig()
	cfg.Workers = workers
	if workers != 1 {
		// Untimed setup: the result must be identical to the one-worker
		// one — a speedup that changes the answer is no speedup.
		seq := batchConfig()
		seq.Workers = 1
		want, err := seq.Run(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		got, err := cfg.Run(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(sortedPairs(want.Matches), sortedPairs(got.Matches)) {
			b.Fatalf("%d workers found %d matches, one worker %d", workers, got.Matches.Len(), want.Matches.Len())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cfg.Run(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches.Len() == 0 {
			b.Fatal("pipeline found no matches")
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

func BenchmarkPipelineSequential(b *testing.B) { benchmarkPipeline(b, 1) }

// BenchmarkPipelineParallel runs at GOMAXPROCS workers.
func BenchmarkPipelineParallel(b *testing.B) { benchmarkPipeline(b, 0) }
