package core

import (
	"context"
	"reflect"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/progressive"
)

func workersCollection(t testing.TB, entities int, seed int64) *entity.Collection {
	t.Helper()
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: entities, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// batchConfig exercises every planning phase: blocking, cleaning and
// meta-blocking ahead of batch matching.
func batchConfig() Pipeline {
	return Pipeline{
		Blocker:    &blocking.TokenBlocking{},
		Processors: []blockproc.Processor{&blockproc.BlockFiltering{}},
		Meta:       &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WEP},
		Matcher:    &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:       Batch,
	}
}

// assertSameResult fails unless got has want's matches, comparison count
// and final blocks.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if gm, wm := sortedPairs(got.Matches), sortedPairs(want.Matches); !reflect.DeepEqual(gm, wm) {
		t.Fatalf("%s: %d matches diverge from the %d at one worker", label, len(gm), len(wm))
	}
	if got.Comparisons != want.Comparisons {
		t.Fatalf("%s: comparisons %d, want %d", label, got.Comparisons, want.Comparisons)
	}
	if gb, wb := renderBlocks(got.Blocks), renderBlocks(want.Blocks); !reflect.DeepEqual(gb, wb) {
		t.Fatalf("%s: %d final blocks diverge from the %d at one worker", label, len(gb), len(wb))
	}
}

// TestPipelineWorkerDeterminism is the runner's determinism contract: for
// every configuration, a run at Workers 1 and at Workers N produce the same
// matches, comparison count and final blocks on a fixed-seed collection.
// The adaptive PSNM scheduler sees wave-synchronous feedback, whose waves
// do not depend on the worker count; ARCS weights are summed in one
// sequential order, so exact WNP ties break the same way.
func TestPipelineWorkerDeterminism(t *testing.T) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{Entities: 250, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	configs := map[string]Pipeline{
		"batch+meta":  batchConfig(),
		"batch-plain": {Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Mode: Batch},
		"progressive": {
			Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
			Mode: Progressive, Budget: 2000, GroundTruth: gt,
		},
		"progressive-psnm": {
			Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
			Mode: Progressive, Budget: 2000, GroundTruth: gt,
			Scheduler: func(c *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
				return progressive.NewPSNM(c, blocking.SortedTokensKey(nil), true, 0)
			},
		},
		"arcs-wnp": {
			Blocker: &blocking.TokenBlocking{},
			Meta:    &metablocking.MetaBlocker{Weight: metablocking.ARCS, Prune: metablocking.WNP},
			Matcher: matcher, Mode: Batch,
		},
	}
	for label, cfg := range configs {
		cfg.Workers = 1
		base, err := cfg.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s workers=1: %v", label, err)
		}
		for _, workers := range []int{2, 4, 0} {
			cfg.Workers = workers
			got, err := cfg.Run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			assertSameResult(t, label, base, got)
		}
	}
}

// TestPipelineWorkersMatchSequential: a run at the default worker count
// reproduces the one-worker run for batch and progressive modes.
func TestPipelineWorkersMatchSequential(t *testing.T) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{Entities: 250, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for label, cfg := range map[string]Pipeline{
		"batch+meta": batchConfig(),
		"progressive": {
			Blocker:     &blocking.TokenBlocking{},
			Matcher:     &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
			Mode:        Progressive,
			Budget:      2000,
			GroundTruth: gt,
		},
	} {
		cfg.Workers = 1
		want, err := cfg.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s sequential: %v", label, err)
		}
		cfg.Workers = 0
		got, err := cfg.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s parallel: %v", label, err)
		}
		assertSameResult(t, label, want, got)
	}
}

// TestPipelineWorkersValidation: a pipeline without a Blocker or a Matcher
// is rejected at every worker count.
func TestPipelineWorkersValidation(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		p := &Pipeline{Workers: workers}
		if _, err := p.Run(context.Background(), entity.NewCollection(entity.Dirty)); err == nil {
			t.Fatalf("workers=%d: missing blocker accepted", workers)
		}
		p.Blocker = &blocking.TokenBlocking{}
		if _, err := p.Run(context.Background(), entity.NewCollection(entity.Dirty)); err == nil {
			t.Fatalf("workers=%d: missing matcher accepted", workers)
		}
	}
}

// TestPipelineNonKeyedBlockerFallback: blockers without a key function
// build sequentially while the rest of the run parallelizes.
func TestPipelineNonKeyedBlockerFallback(t *testing.T) {
	c := workersCollection(t, 150, 9)
	cfg := Pipeline{
		Blocker: &blocking.SortedNeighborhood{Window: 5},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    Batch,
		Workers: 1,
	}
	want, err := cfg.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	got, err := cfg.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "sorted-neighborhood", want, got)
}

// TestPipelineIterativeModesWorkers: the iterative modes run their
// sequential algorithms at any worker count and agree with one worker.
func TestPipelineIterativeModesWorkers(t *testing.T) {
	c := workersCollection(t, 80, 9)
	for _, mode := range []Mode{MergingIterative, IterativeBlocks} {
		cfg := Pipeline{
			Blocker: &blocking.TokenBlocking{},
			Matcher: &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.7},
			Mode:    mode,
			Workers: 1,
		}
		want, err := cfg.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s workers=1: %v", mode, err)
		}
		cfg.Workers = 0
		got, err := cfg.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if gm, wm := sortedPairs(got.Matches), sortedPairs(want.Matches); !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: matches diverge across worker counts", mode)
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	c := workersCollection(t, 250, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := batchConfig()
	cfg.Workers = 4
	if _, err := cfg.Run(ctx, c); err == nil {
		t.Fatal("cancelled run: want error")
	}
}

// TestPipelineProgressiveBudgetExact: Progressive mode stops at exactly
// the configured comparison budget.
func TestPipelineProgressiveBudgetExact(t *testing.T) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{Entities: 250, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Blocker:     &blocking.TokenBlocking{},
		Matcher:     &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:        Progressive,
		Budget:      777,
		GroundTruth: gt,
		Scheduler: func(c *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
			return progressive.NewStaticOrder(bs)
		},
		Workers: 4,
	}
	got, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Comparisons != 777 {
		t.Fatalf("executed %d comparisons, want exactly 777", got.Comparisons)
	}
}
