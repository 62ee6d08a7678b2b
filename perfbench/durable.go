package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"entityres/er"
)

// durable-ingest: a durable 2-shard in-process deployment (fsync on) with
// live CBS/WEP meta-blocking. Open preloads a first share from CSV
// sources; one closed-loop writer sends the rest with ApplyBatch in
// batches of 64 and calls Flush; then Close. A run repeats this cycle in a
// fresh directory while time remains and reports medians, then reopens the
// last cycle's directory with the same sources. It is the workload that
// exercises wal, checkpoints, sharded fan-out and the meta-blocking
// reconcile.
const (
	durableEntities  = 2000 // ~3k records
	durablePreload   = 0.5
	durableBatch     = 64
	durableShards    = 2
	durableMinCycles = 3
	durableSamples   = 64 // same-as answers compared across the reopen
)

// durableOptions checkpoint every 8 journal appends and rebase every 4
// deltas, so one cycle takes full and delta checkpoints and recovery
// restores a snapshot and then replays a tail.
var durableOptions = er.StreamingDurable{SnapshotEvery: 8, RebaseEvery: 4}

// cycle is one open → ingest → flush → close pass.
type cycle struct {
	cfg                er.Config
	setup, ingest      time.Duration
	wall               time.Duration // the whole pass
	ops                int
	diskBytes          int64
	walBytes, walFiles int64
	stats              er.StreamingStats
	perf               er.StreamingPerf
	sameAs             [][]er.ID // the sample's answers before Close
}

func runDurableIngest(ctx context.Context, e env, tr *tracer) (*outcome, error) {
	cp, err := genCorpus(e.seed, durableEntities)
	if err != nil {
		return nil, err
	}
	srcs, rest, err := cp.split(e.dir, durablePreload)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var sample []string
	for i := 0; i < durableSamples; i++ {
		recs := cp.sources[rng.Intn(2)]
		sample = append(sample, recs[rng.Intn(len(recs))].URI)
	}

	out := &outcome{}
	var cycles []cycle
	deadline := time.Now().Add(e.seconds)
	for len(cycles) < durableMinCycles || time.Now().Add(cycles[len(cycles)-1].wall).Before(deadline) {
		dir, err := os.MkdirTemp(e.dir, "deploy-")
		if err != nil {
			return nil, err
		}
		cfg := er.Config{
			Kind:    er.CleanClean,
			Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			Workers: e.workers,
			Meta:    &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP},
			Dir:     dir,
			Durable: durableOptions,
			Shards:  durableShards,
			Sources: srcs,
		}
		c, err := durableCycle(ctx, cfg, cp.sources[0][0].URI, rest, sample, tr)
		if err != nil {
			return nil, err
		}
		if len(cycles) > 0 {
			out.check(c.stats == cycles[0].stats, "cycle %d ends at %v, cycle 0 at %v", len(cycles), c.stats, cycles[0].stats)
		}
		cycles = append(cycles, c)
		out.attempted += int64(c.ops)
	}

	// Recovery: reopen the last cycle's directory until Stats answers; the
	// recovered state must equal the pre-close one.
	last := cycles[len(cycles)-1]
	runtime.GC()
	t0 := time.Now()
	reopened, err := er.Open(ctx, last.cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r := instrument(reopened, tr, "sharded")
	defer r.Close()
	got, err := r.Stats()
	if err != nil {
		return nil, err
	}
	recovery := time.Since(t0)
	out.check(got == last.stats, "recovered stats %v differ from pre-close %v", got, last.stats)
	replayed := 0
	for _, info := range r.(er.DurableReporter).Recovery() {
		out.check(info.Recovered && info.SnapshotSegment > 0, "a shard recovered without a snapshot: %+v", info)
		replayed += info.ReplayedRecords
	}
	gotSample, err := sameAs(ctx, r, sample)
	if err != nil {
		return nil, err
	}
	for i := range sample {
		out.check(slices.Equal(gotSample[i], last.sameAs[i]), "same-as of %s is %v after recovery, %v before", sample[i], gotSample[i], last.sameAs[i])
	}
	// The recovered deployment is the state the heap figure holds.
	heap := liveHeapMiB()
	var all []string
	for _, recs := range cp.sources {
		for _, rec := range recs {
			all = append(all, rec.URI)
		}
	}
	recall, precision, err := linkQuality(ctx, r, all, cp.truth)
	if err != nil {
		return nil, err
	}

	med := func(f func(cycle) time.Duration) time.Duration {
		var ds []time.Duration
		for _, c := range cycles {
			ds = append(ds, f(c))
		}
		return median(ds)
	}
	ingest := med(func(c cycle) time.Duration { return c.ingest })
	out.work = ingest
	out.digest = last.stats.String()
	out.e2e = []metric{
		{"setup_s", med(func(c cycle) time.Duration { return c.setup }).Seconds(), "s"},
		{"resolve_s", ingest.Seconds(), "s"},
		{"recall", recall, "ratio"},
		{"heap_mib", heap, "MiB"},
	}
	out.headline = []metric{
		{"precision", precision, "ratio"},
		{"ingest_ops_per_s", float64(len(rest)) / ingest.Seconds(), "ops/s"},
		{"recovery_s", recovery.Seconds(), "s"},
		{"disk_bytes_per_op", float64(last.diskBytes) / float64(last.ops), "B/op"},
	}
	fmt.Printf("durable-ingest: %d cycles of %d preloaded + %d ingested ops; %v\n", len(cycles), last.ops-len(rest), len(rest), last.stats)
	if tr == nil {
		return out, nil
	}
	spanMedian := func(name string) time.Duration {
		var ds []time.Duration
		for _, s := range tr.named(name) {
			ds = append(ds, s.dur())
		}
		return median(ds)
	}
	out.layers = append(perfLayers(last.perf, last.stats),
		metric{"sharded.apply_ms_p50", ms(spanMedian("sharded.apply")), "ms"},
		metric{"sharded.apply_s", tr.total("sharded.apply").Seconds() / float64(len(cycles)), "s"},
		metric{"sharded.close_s", spanMedian("sharded.close").Seconds(), "s"},
		metric{"metablocking.flush_s", spanMedian("sharded.flush").Seconds(), "s"},
		metric{"wal.bytes", float64(last.walBytes), "B"},
		metric{"wal.files", float64(last.walFiles), "count"},
		metric{"wal.replayed_records", float64(replayed), "count"},
	)
	return out, nil
}

// durableCycle runs one pass in cfg.Dir.
func durableCycle(ctx context.Context, cfg er.Config, probe string, rest []er.StreamOp, sample []string, tr *tracer) (cycle, error) {
	c := cycle{cfg: cfg}
	runtime.GC()
	start := time.Now()
	opened, err := er.Open(ctx, cfg)
	if err != nil {
		return c, err
	}
	r := instrument(opened, tr, "sharded")
	if _, err := r.Query(ctx, er.Query{URI: probe}); err != nil {
		r.Close()
		return c, fmt.Errorf("first query: %w", err)
	}
	c.setup = time.Since(start)

	t0 := time.Now()
	for at := 0; at < len(rest); at += durableBatch {
		if err := r.ApplyBatch(ctx, rest[at:min(at+durableBatch, len(rest))]); err != nil {
			r.Close()
			return c, fmt.Errorf("ingest: %w", err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		r.Close()
		return c, fmt.Errorf("flush: %w", err)
	}
	c.ingest = time.Since(t0)

	if c.stats, err = r.Stats(); err != nil {
		r.Close()
		return c, err
	}
	c.ops = int(c.stats.Inserts + c.stats.Updates + c.stats.Deletes)
	c.perf = r.(er.PerfReporter).Perf()
	if c.sameAs, err = sameAs(ctx, r, sample); err != nil {
		r.Close()
		return c, err
	}
	if err := r.Close(); err != nil {
		return c, err
	}
	c.wall = time.Since(start)
	err = filepath.WalkDir(cfg.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		c.diskBytes += info.Size()
		if strings.HasSuffix(path, ".seg") {
			c.walBytes += info.Size()
			c.walFiles++
		}
		return nil
	})
	return c, err
}

// sameAs answers the sample's same-as queries as handle lists.
func sameAs(ctx context.Context, r er.Resolver, uris []string) ([][]er.ID, error) {
	out := make([][]er.ID, len(uris))
	for i, u := range uris {
		res, err := r.Query(ctx, er.Query{URI: u})
		if err != nil {
			return nil, fmt.Errorf("same-as %s: %w", u, err)
		}
		out[i] = res.SameAs
	}
	return out, nil
}
