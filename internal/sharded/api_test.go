package sharded_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
)

// The coordinator's read/serving surface: Kind, Lookup, Get, Clusters,
// Flush, per-shard edge introspection, and the broken/down error paths the
// differential matrices never hit.

func apiConfig(shards int, meta *metablocking.MetaBlocker) sharded.Config {
	return sharded.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Workers: 2,
		Meta:    meta,
		Shards:  shards,
	}
}

func apiDesc(uri, name string) *entity.Description {
	return &entity.Description{ID: -1, URI: uri, Attrs: []entity.Attribute{{Name: "name", Value: name}}}
}

// TestShardedReadSurface drives the serving accessors end to end.
func TestShardedReadSurface(t *testing.T) {
	r, err := sharded.New(apiConfig(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != entity.Dirty {
		t.Fatalf("Kind = %v", r.Kind())
	}
	ctx := context.Background()
	a, err := r.Insert(ctx, apiDesc("u:a", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Insert(ctx, apiDesc("u:b", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, apiDesc("u:c", "carol jones")); err != nil {
		t.Fatal(err)
	}
	if id, ok := r.Lookup("u:b"); !ok || id != b {
		t.Fatalf("Lookup(u:b) = %d,%v", id, ok)
	}
	if _, ok := r.Lookup("u:zzz"); ok {
		t.Fatal("Lookup of unknown URI succeeded")
	}
	d, ok := r.Get(a)
	if !ok || d.URI != "u:a" {
		t.Fatalf("Get(%d) = %v,%v", a, d, ok)
	}
	if _, ok := r.Get(99); ok {
		t.Fatal("Get of unknown handle succeeded")
	}
	cl := mustClusters(t, r)
	if len(cl) != 1 || len(cl[0]) != 2 || cl[0][0] != a || cl[0][1] != b {
		t.Fatalf("Clusters = %v", cl)
	}
	// Flush is a no-op without meta-blocking.
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Every match edge lives in exactly the shards that evaluated it; the
	// per-shard views union to the global match set.
	total := 0
	for i := 0; i < r.Shards(); i++ {
		for _, e := range r.MatchEdgesOfShard(i) {
			if !mustMatches(t, r).Contains(e.A, e.B) {
				t.Fatalf("shard %d holds edge %v outside the global match set", i, e)
			}
			total++
		}
	}
	if total != mustMatches(t, r).Len() {
		t.Fatalf("shard-local edges sum to %d, global matches %d", total, mustMatches(t, r).Len())
	}
	if r.MatchEdgesOfShard(99) != nil {
		t.Fatal("MatchEdgesOfShard out of range returned edges")
	}
	// Duplicate URIs and unknown handles are rejected at the coordinator.
	if _, err := r.Insert(ctx, apiDesc("u:a", "imposter")); err == nil {
		t.Fatal("duplicate URI accepted")
	}
	if err := r.Update(ctx, 99, nil); err == nil {
		t.Fatal("update of unknown handle accepted")
	}
	if err := r.Delete(ctx, 99); err == nil {
		t.Fatal("delete of unknown handle accepted")
	}
	if _, err := r.Insert(ctx, nil); err == nil {
		t.Fatal("nil insert accepted")
	}
	// Close disables mutation; reads keep serving.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, apiDesc("u:d", "dora")); err == nil {
		t.Fatal("insert after Close accepted")
	}
	if got := mustClusters(t, r); len(got) != 1 {
		t.Fatalf("reads after Close broke: %v", got)
	}
}

// TestShardedMetaFlush: Flush settles the deferred global reconcile, and a
// second Flush with nothing new is free.
func TestShardedMetaFlush(t *testing.T) {
	r, err := sharded.New(apiConfig(2, &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range []*entity.Description{apiDesc("u:a", "alice smith"), apiDesc("u:b", "alice smith")} {
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	if st.Matches != 1 || st.Comparisons != 1 || st.KeptPairs != 1 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st2 := mustStats(t, r); st2 != st {
		t.Fatalf("idle flush changed state: %+v vs %+v", st2, st)
	}
	if rb := mustRestructuredBlocks(t, r); rb == nil || rb.Len() != 1 {
		t.Fatalf("RestructuredBlocks = %v", rb)
	}
}

// TestShardedLifecycleErrors covers the stop/rejoin misuse paths.
func TestShardedLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := apiConfig(2, nil)
	cfg.Durable.NoSync = true
	r, err := sharded.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Insert(context.Background(), apiDesc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.StopShard(7); err == nil {
		t.Fatal("StopShard out of range accepted")
	}
	if _, err := r.RejoinShard(7); err == nil {
		t.Fatal("RejoinShard out of range accepted")
	}
	if _, err := r.RejoinShard(0); err == nil {
		t.Fatal("RejoinShard of a running shard accepted")
	}
	if err := r.StopShard(0); err != nil {
		t.Fatal(err)
	}
	if err := r.StopShard(0); err == nil {
		t.Fatal("double StopShard accepted")
	}
	if _, err := r.RejoinShard(0); err != nil {
		t.Fatal(err)
	}
	// A fresh (never-recovered) resolver reports no recovery.
	if r.Recovered() {
		t.Fatal("fresh directory reported recovered state")
	}
}

// TestShardedOpenErrors covers the manifest and configuration guard paths.
func TestShardedOpenErrors(t *testing.T) {
	// A corrupt manifest refuses to open rather than guessing the layout.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shards.manifest"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Open(dir, apiConfig(2, nil)); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	// Invalid configurations fail before any directory is touched.
	if _, err := sharded.Open(t.TempDir(), sharded.Config{Shards: 2}); err == nil {
		t.Fatal("blocker-less config accepted")
	}
	// Unknown op kinds are rejected by Apply.
	r, err := sharded.New(apiConfig(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(context.Background(), incremental.Op{Kind: incremental.OpKind(99)}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	// RejoinShard on an in-memory resolver is refused like StopShard.
	if _, err := r.RejoinShard(0); err == nil {
		t.Fatal("RejoinShard on an in-memory resolver accepted")
	}
}

// TestShardedCancellationGatesAdmission: a done context fails the
// operation before anything is touched — it can never fire mid-fan-out
// and split the shard replicas (which would permanently disable the
// resolver). Once admitted, an operation completes everywhere.
func TestShardedCancellationGatesAdmission(t *testing.T) {
	r, err := sharded.New(apiConfig(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Insert(ctx, apiDesc("u:a", "alice smith")); err != nil {
		t.Fatal(err)
	}
	before := mustStats(t, r)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Insert(cancelled, apiDesc("u:b", "bob")); err == nil {
		t.Fatal("insert admitted under a done context")
	}
	if err := r.Update(cancelled, 0, nil); err == nil {
		t.Fatal("update admitted under a done context")
	}
	if st := mustStats(t, r); st != before {
		t.Fatalf("rejected ops mutated state: %+v vs %+v", st, before)
	}
	// The resolver is NOT broken: the next live-context op succeeds and
	// handles continue densely (no slot was burned anywhere).
	id, err := r.Insert(ctx, apiDesc("u:b", "alice smith"))
	if err != nil {
		t.Fatalf("resolver unusable after a rejected op: %v", err)
	}
	if id != 1 {
		t.Fatalf("handle %d after rejected ops, want 1", id)
	}
	if st := mustStats(t, r); st.Inserts != 2 || st.Matches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLayoutMixingRefused: a directory serving one deployment form cannot
// silently be opened as the other — both directions fail loudly instead of
// starting a fresh journal beside the real one.
func TestLayoutMixingRefused(t *testing.T) {
	ctx := context.Background()
	cfg := apiConfig(2, nil)
	cfg.Durable.NoSync = true

	// Single-node directory refused by sharded.Open.
	singleDir := t.TempDir()
	sr, err := incremental.OpenResolver(singleDir, incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: incremental.DurableOptions{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Insert(ctx, apiDesc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Open(singleDir, cfg); err == nil {
		t.Fatal("sharded.Open accepted a single-node journal directory")
	}

	// Sharded directory refused by the single-node OpenResolver.
	shardedDir := t.TempDir()
	r, err := sharded.Open(shardedDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, apiDesc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := incremental.OpenResolver(shardedDir, incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: incremental.DurableOptions{NoSync: true},
	}); err == nil {
		t.Fatal("OpenResolver accepted a sharded directory root")
	}
}
