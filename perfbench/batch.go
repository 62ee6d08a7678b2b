package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"time"

	"entityres/er"
	"entityres/internal/blockproc"
)

// batch-interlink: two CSV sources of ~102k records loaded into one
// collection and resolved by the parallel engine with TokenBlocking →
// MaxComparisonsPurge{2000} → TokenJaccard 0.5, the erbench -ingest
// pipeline. Matching dominates resolve time and purge sets the recall
// ceiling, so tabular, token, blocking, blockproc, similarity and matching
// do their work here.
const (
	batchEntities  = 68_000 // ~102k records: every entity in KB0, half in KB1
	batchPurgeMax  = 2000
	batchThreshold = 0.5
	batchLoads     = 9 // set-up repetitions; setup_s is their median
	batchMinRuns   = 3 // resolves per run, more while time remains
)

func batchPipeline() er.Pipeline {
	return er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.MaxComparisonsPurge{Max: batchPurgeMax}},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: batchThreshold},
	}
}

// resolved is one resolve's output.
type resolved struct {
	blocks      *er.Blocks
	matches     *er.Matches
	comparisons int64
}

// digest identifies the match set and the final blocks; blocks come out in
// a deterministic order for any worker count, matches are sorted.
func (r resolved) digest() string {
	pairs := r.matches.Pairs()
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].A < pairs[j].A || pairs[i].A == pairs[j].A && pairs[i].B < pairs[j].B
	})
	mh := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(mh, "%d,%d;", p.A, p.B)
	}
	bh := sha256.New()
	for _, b := range r.blocks.All() {
		fmt.Fprintf(bh, "%s|%v|%v;", b.Key, b.S0, b.S1)
	}
	return fmt.Sprintf("matches=%x blocks=%x", mh.Sum(nil)[:8], bh.Sum(nil)[:8])
}

func runBatchInterlink(ctx context.Context, e env, tr *tracer) (*outcome, error) {
	cp, err := genCorpus(e.seed, batchEntities)
	if err != nil {
		return nil, err
	}
	srcs, _, err := cp.split(e.dir, 1)
	if err != nil {
		return nil, err
	}

	var loads []time.Duration
	var c *er.Collection
	for i := 0; i < batchLoads; i++ {
		runtime.GC()
		sp := tr.begin("tabular.load", 0)
		t0 := time.Now()
		c = er.NewCollection(er.CleanClean)
		for _, s := range srcs {
			if err := er.ReadSource(c, s); err != nil {
				return nil, err
			}
		}
		loads = append(loads, time.Since(t0))
		sp.end()
	}
	out := &outcome{}
	out.check(c.Len() == cp.records(), "loaded %d descriptions, generated %d", c.Len(), cp.records())
	truth, truthSet, err := truthPairs(c, cp.truth)
	if err != nil {
		return nil, err
	}

	engine := er.NewParallelPipeline(batchPipeline(), er.ParallelOptions{Workers: e.workers})
	var (
		runs                 []time.Duration
		last                 resolved
		digest               string
		blockT, purgeT, matT []time.Duration
		composed, overhead   []time.Duration
		unpurged             *er.Blocks
		round                time.Duration // the last pass of the loop
	)
	deadline := time.Now().Add(e.seconds)
	for len(runs) < batchMinRuns || time.Now().Add(round).Before(deadline) {
		start := time.Now()
		runtime.GC()
		sp := tr.begin("pipeline.run", 0)
		t0 := time.Now()
		res, err := engine.Run(ctx, c)
		if err != nil {
			return nil, err
		}
		runs = append(runs, time.Since(t0))
		sp.end()
		last = resolved{blocks: res.Blocks, matches: res.Matches, comparisons: res.Comparisons}
		d := last.digest()
		out.check(digest == "" || d == digest, "resolve %d gives %s, the first gave %s", len(runs), d, digest)
		digest = d
		round = time.Since(start)
		if !e.compare {
			continue
		}
		// Both passes of a traced run compose the engine's own stage calls
		// after each engine run, timed whole, so the tracing overhead
		// compares the same calls with and without their spans. The traced
		// pass puts one span around each stage; the composed outputs must
		// reproduce the engine's.
		var stages [3]span
		var traced resolved
		runtime.GC()
		t1 := time.Now()
		if stages, traced, unpurged, err = composedResolve(ctx, c, e.workers, tr); err != nil {
			return nil, err
		}
		composed = append(composed, time.Since(t1))
		round = time.Since(start)
		td := traced.digest()
		out.check(td == d, "composed stages give %s, engine gives %s", td, d)
		if tr == nil {
			continue
		}
		blockT = append(blockT, stages[0].dur())
		purgeT = append(purgeT, stages[1].dur())
		matT = append(matT, stages[2].dur())
		overhead = append(overhead, runs[len(runs)-1]-stages[0].dur()-stages[1].dur()-stages[2].dur())
	}
	out.attempted = int64(len(runs))
	out.digest = digest

	// Every reported match must re-score at the threshold and share a
	// final block.
	final, finalM := evalMatches(c, last.matches, truth), blockMembership(c.Len(), last.blocks)
	sim := &er.TokenJaccard{}
	bad := 0
	for _, p := range last.matches.Pairs() {
		if sim.Sim(c.Get(p.A), c.Get(p.B)) < batchThreshold || !finalM.share(p.A, p.B) {
			bad++
		}
	}
	out.check(bad == 0, "%d of %d matches fail to re-score >= %.1f in a shared block", bad, last.matches.Len(), batchThreshold)
	out.check(last.matches.Len() > 0, "resolve found no matches")
	prf := er.ComparePairs(last.matches, truthSet)

	resolve := median(runs)
	out.work = median(composed)
	out.e2e = []metric{
		{"setup_s", median(loads).Seconds(), "s"},
		{"resolve_s", resolve.Seconds(), "s"},
		{"recall", prf.Recall, "ratio"},
		{"heap_mib", liveHeapMiB(), "MiB"},
	}
	out.headline = []metric{{"precision", prf.Precision, "ratio"}}
	// The collection and last resolve are the state the heap figure holds.
	runtime.KeepAlive(c)
	runtime.KeepAlive(last)
	if tr == nil {
		return out, nil
	}
	bq := evalBlocks(c, unpurged, truth)
	pq := evalBlocks(c, last.blocks, truth)
	match := median(matT)
	out.layers = []metric{
		{"tabular.load_s", median(loads).Seconds(), "s"},
		{"blocking.block_s", median(blockT).Seconds(), "s"},
		{"blocking.comparisons", float64(bq.comparisons), "count"},
		{"blocking.pc", bq.pc, "ratio"},
		{"blocking.rr", bq.rr, "ratio"},
		{"blockproc.purge_s", median(purgeT).Seconds(), "s"},
		{"blockproc.comparisons", float64(pq.comparisons), "count"},
		{"blockproc.pc", pq.pc, "ratio"},
		{"blockproc.pq", pq.pq, "ratio"},
		{"blockproc.rr", pq.rr, "ratio"},
		{"matching.match_s", match.Seconds(), "s"},
		{"matching.comparisons", float64(last.comparisons), "count"},
		{"matching.matches", float64(last.matches.Len()), "count"},
		{"matching.us_per_comparison", float64(match.Microseconds()) / float64(last.comparisons), "us"},
		{"matching.pq", float64(last.matches.Len()) / float64(last.comparisons), "ratio"},
		{"matching.pc", final.pc, "ratio"},
		{"pipeline.overhead_s", median(overhead).Seconds(), "s"},
	}
	return out, nil
}

// composedResolve runs the stages pipeline.Engine composes — sharded
// blocking, the block-cleaning chain, the parallel matcher — with a span
// around each call, and returns the stage spans, the output and the
// unpurged blocks.
func composedResolve(ctx context.Context, c *er.Collection, workers int, tr *tracer) ([3]span, resolved, *er.Blocks, error) {
	var stages [3]span
	pipe := batchPipeline()
	sp := tr.begin("blocking.block", 0)
	var bs *er.Blocks
	var err error
	if workers > 1 {
		bs, err = er.BuildShardedBlocks(ctx, c, pipe.Blocker.(er.KeyedBlocker), workers)
	} else {
		bs, err = pipe.Blocker.Block(c)
	}
	if err != nil {
		return stages, resolved{}, nil, err
	}
	stages[0] = sp.end()

	sp = tr.begin("blockproc.purge", 0)
	purged := blockproc.Chain(pipe.Processors).Process(bs)
	stages[1] = sp.end()

	sp = tr.begin("matching.match", 0)
	mr, err := er.ResolveBlocksParallel(ctx, c, purged, pipe.Matcher, workers)
	if err != nil {
		return stages, resolved{}, nil, err
	}
	stages[2] = sp.end()
	return stages, resolved{blocks: purged, matches: mr.Matches, comparisons: mr.Comparisons}, bs, nil
}

// truthPairs maps the generator's URI truth onto collection handles.
func truthPairs(c *er.Collection, uris [][2]string) ([]er.Pair, *er.Matches, error) {
	byURI := make(map[string]er.ID, c.Len())
	for id, d := range c.All() {
		byURI[d.URI] = id
	}
	pairs := make([]er.Pair, 0, len(uris))
	set := er.NewMatches()
	for _, u := range uris {
		a, okA := byURI[u[0]]
		b, okB := byURI[u[1]]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("truth pair %s = %s names a description that was not loaded", u[0], u[1])
		}
		pairs = append(pairs, er.NewPair(a, b))
		set.Add(a, b)
	}
	return pairs, set, nil
}
