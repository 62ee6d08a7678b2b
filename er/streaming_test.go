package er_test

import (
	"bytes"
	"context"
	"testing"

	"entityres/er"
)

// TestFacadeStreamingResolver exercises the public streaming surface end to
// end: build an op log, replay it through a StreamingResolver, and check
// the maintained state equals a batch pipeline over the survivors.
func TestFacadeStreamingResolver(t *testing.T) {
	attrs := func(name, city string) []er.Attribute {
		return []er.Attribute{{Name: "name", Value: name}, {Name: "city", Value: city}}
	}
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: attrs("carol jones", "paris")},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamDelete, URI: "u:b"},
	}

	// Round-trip through the op-log wire format first.
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	decoded, err := er.ReadStreamOps(&buf)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, op := range decoded {
		if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Survivors: a and (updated) c, now identical — one match, one cluster.
	snap, matches := liveState(t, r, er.Dirty, []string{"u:a", "u:b", "u:c"})
	if snap.Len() != 2 || snap.Get(0).URI != "u:a" || snap.Get(1).URI != "u:c" {
		t.Fatalf("live descriptions = %d, want u:a and u:c", snap.Len())
	}
	if matches.Len() != 1 || !matches.Contains(0, 1) {
		t.Fatalf("matches = %v, want {u:a, u:c}", matches.Pairs())
	}

	// Differential check: a batch pipeline over the survivors.
	batch := &er.Pipeline{
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
	res, err := batch.Run(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches.Len() != matches.Len() {
		t.Fatalf("batch over survivors found %d matches, streaming %d", res.Matches.Len(), matches.Len())
	}
	res.Matches.Each(func(p er.Pair) bool {
		if !matches.Contains(p.A, p.B) {
			t.Fatalf("batch match %v missing from streaming state", p)
		}
		return true
	})
	if st := mustStats(t, r); st.Live != 2 || st.Clusters != 1 {
		t.Fatalf("stats = %s", st)
	}
}

// TestFacadeStreamingMode checks the Streaming pipeline mode is exported
// and produces the batch result on a static collection.
func TestFacadeStreamingMode(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 3, Entities: 50})
	if err != nil {
		t.Fatal(err)
	}
	m := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
	batch, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.Batch}).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.StreamingMode}).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Matches.Len() != stream.Matches.Len() || batch.Comparisons != stream.Comparisons {
		t.Fatalf("streaming (%d matches, %d comparisons) != batch (%d matches, %d comparisons)",
			stream.Matches.Len(), stream.Comparisons, batch.Matches.Len(), batch.Comparisons)
	}
}

// TestFacadeStreamingMetaBlocking exercises the public live meta-blocking
// surface: a StreamingResolver with a stream-safe MetaBlocker equals the
// batch meta pipeline on a static replay, reports its pruning counters,
// and renders the same restructured block collection.
func TestFacadeStreamingMetaBlocking(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 13, Entities: 60, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	meta := &er.MetaBlocker{Weight: er.ECBS, Prune: er.WEP}
	matcher := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}

	batch := &er.Pipeline{Blocker: &er.TokenBlocking{}, Meta: meta, Matcher: matcher, Mode: er.Batch}
	want, err := batch.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: matcher,
		Meta:    meta,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	if st.Comparisons != want.Comparisons {
		t.Fatalf("streaming comparisons = %d, batch = %d", st.Comparisons, want.Comparisons)
	}
	if st.Matches != want.Matches.Len() {
		t.Fatalf("streaming matches = %d, batch = %d", st.Matches, want.Matches.Len())
	}
	if st.KeptPairs <= 0 || st.CandidatePairs < st.KeptPairs {
		t.Fatalf("pruning counters kept=%d candidates=%d", st.KeptPairs, st.CandidatePairs)
	}
	// The streaming resolver's restructured blocks are what Streaming mode
	// reports as its block collection.
	stream, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Meta: meta, Matcher: matcher, Mode: er.StreamingMode}).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.Blocks; got.Len() != want.Blocks.Len() {
		t.Fatalf("restructured blocks = %d, batch = %d", got.Len(), want.Blocks.Len())
	}
	// The incremental statistics core is exported too: batch-accumulated
	// and stream-maintained graphs weigh identically.
	wg := er.WeightedGraphFromBlocks(want.Blocks)
	if wg.NumBlocks() != want.Blocks.Len() {
		t.Fatalf("WeightedGraphFromBlocks.NumBlocks = %d, want %d", wg.NumBlocks(), want.Blocks.Len())
	}
	if nw := er.NewWeightedBlockingGraph(er.Dirty); nw.NumPairs() != 0 {
		t.Fatalf("NewWeightedBlockingGraph not empty")
	}
	// A batch-only scheme is rejected with its specific reason.
	if _, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: matcher,
		Meta:    &er.MetaBlocker{Weight: er.ARCS, Prune: er.WEP},
	}); err == nil {
		t.Fatal("ARCS-weighted streaming resolver accepted")
	}
}

// TestFacadePersistentResolver exercises the durable storage layer through
// the public API: journal an op stream into a WAL directory, close, reopen
// the directory, and keep resolving — the recovered state must match an
// in-memory resolver fed the same ops.
func TestFacadePersistentResolver(t *testing.T) {
	attrs := func(name string) []er.Attribute {
		return []er.Attribute{{Name: "name", Value: name}}
	}
	ctx := context.Background()
	cfg := er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Durable: er.StreamingDurable{NoSync: true, SnapshotEvery: 3},
	}
	mem, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	cfg.Dir = t.TempDir()
	r, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: attrs("carol jones")},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:d", Attrs: attrs("dave brown")},
		{Kind: er.StreamDelete, URI: "u:b"},
	}
	all := []string{"u:a", "u:b", "u:c", "u:d", "u:e"}
	for i, op := range ops {
		if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := mem.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("mem op %d: %v", i, err)
		}
	}
	// Seal the journal and reopen; the crash-path equivalents (hard stop,
	// torn tail) are enforced by internal/incremental's crash suite.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	rec := got.(er.DurableReporter).Recovery()[0]
	if !rec.Recovered || rec.SnapshotSegment == 0 {
		t.Fatalf("recovery = %+v, want recovered with a snapshot anchor", rec)
	}
	// 6 ops at a cadence of 3: the tail beyond the last snapshot is empty.
	if rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 (snapshot covers all 6 ops)", rec.ReplayedRecords)
	}
	if g, w := mustStats(t, got), mustStats(t, mem); g != w {
		t.Fatalf("recovered stats %+v, want %+v", g, w)
	}
	_, gm := liveState(t, got, er.Dirty, all)
	_, wm := liveState(t, mem, er.Dirty, all)
	if !sameMatches(gm, wm) {
		t.Fatalf("recovered matches %v, want %v", gm.Pairs(), wm.Pairs())
	}
	// The recovered resolver keeps accepting the stream.
	more := []er.StreamOp{{Kind: er.StreamInsert, URI: "u:e", Attrs: attrs("carol jones")}}
	if err := got.ApplyBatch(ctx, more); err != nil {
		t.Fatal(err)
	}
	if err := mem.ApplyBatch(ctx, more); err != nil {
		t.Fatal(err)
	}
	if g, w := mustStats(t, got), mustStats(t, mem); g != w {
		t.Fatalf("post-recovery stats %+v, want %+v", g, w)
	}
}

// TestFacadeShardedResolver exercises the public sharded surface end to
// end: the same op stream through a single-node and a sharded resolver,
// bit-equal state; a durable sharded run hard-stopped and reopened from
// its per-shard journals; and the Pipeline's StreamShards knob. Stopping
// and rejoining one shard of a live deployment is covered by
// internal/sharded's TestShardCrashRejoin.
func TestFacadeShardedResolver(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 9, Entities: 60})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
	cfg := er.Config{Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: m, Workers: 2}
	single, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	cfg.Shards = 4
	sh, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, d := range c.All() {
		if _, err := single.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	ss, hs := mustStats(t, single), mustStats(t, sh)
	if ss != hs {
		t.Fatalf("sharded stats %+v diverge from single-node %+v", hs, ss)
	}
	_, sm := liveState(t, single, er.Dirty, uriList(c))
	_, hm := liveState(t, sh, er.Dirty, uriList(c))
	if !sameMatches(hm, sm) {
		t.Fatalf("sharded matches %v diverge from single-node %v", hm.Pairs(), sm.Pairs())
	}

	// Durable: journal into per-shard WALs, hard-stop, reopen shard by shard.
	cfg.Shards = 3
	cfg.Dir = t.TempDir()
	cfg.Durable = er.StreamingDurable{NoSync: true, SnapshotEvery: 16}
	pr, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.All() {
		if _, err := pr.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	pr.(er.DurableReporter).Abandon()
	pr, err = er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	for i, rec := range pr.(er.DurableReporter).Recovery() {
		if !rec.Recovered {
			t.Fatalf("reopened shard %d found no state", i)
		}
	}
	if st := mustStats(t, pr); st != ss {
		t.Fatalf("durable sharded stats %+v diverge from single-node %+v after reopen", st, ss)
	}

	// Pipeline knob: StreamShards replays through the sharded resolver.
	res, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.StreamingMode, StreamShards: 4}).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches.Len() != ss.Matches || res.Comparisons != ss.Comparisons {
		t.Fatalf("StreamShards pipeline (%d matches, %d comparisons) != resolver (%d matches, %d comparisons)",
			res.Matches.Len(), res.Comparisons, ss.Matches, ss.Comparisons)
	}
}
