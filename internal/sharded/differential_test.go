package sharded_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
)

// The cross-shard differential property: after ANY operation sequence, the
// sharded resolver's matches, clusters, comparison counts, blocks and
// restructured blocks are bit-identical to the single-node streaming
// resolver — for every shard count — and therefore to a from-scratch batch
// pipeline over the surviving descriptions. The tests drive randomized
// URI-addressed op scripts (3 seeds × insert/update/delete mixes) through
// both resolvers in lockstep at shard counts {1, 2, 4, 7}, comparing every
// observable at checkpoints along the stream so mid-stream divergence
// cannot hide behind a convergent tail. The fan-out machinery runs real
// goroutines, so CI executes the suite under -race.

// opMix weights the generator's choice between inserts, updates, deletes.
type opMix struct {
	name                   string
	insert, update, delete int
}

var opMixes = []opMix{
	{name: "insert-heavy", insert: 7, update: 2, delete: 1},
	{name: "churn", insert: 4, update: 3, delete: 3},
	{name: "delete-heavy", insert: 5, update: 1, delete: 4},
}

// pool generates the description universe an op stream draws from.
func pool(t *testing.T, kind entity.Kind, seed int64) []*entity.Description {
	t.Helper()
	var c *entity.Collection
	var err error
	if kind == entity.CleanClean {
		c, _, err = datagen.GenerateCleanClean(datagen.Config{Seed: seed, Entities: 60, DupRatio: 0.7})
	} else {
		c, _, err = datagen.GenerateDirty(datagen.Config{Seed: seed, Entities: 60, DupRatio: 0.7, MaxDuplicates: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.All()
}

// mutate derives a deterministic attribute rewrite for an update.
func mutate(rng *rand.Rand, own, donor []entity.Attribute) []entity.Attribute {
	out := make([]entity.Attribute, 0, len(own))
	for _, a := range own {
		if rng.Intn(3) == 0 && len(donor) > 0 {
			d := donor[rng.Intn(len(donor))]
			out = append(out, entity.Attribute{Name: a.Name, Value: d.Value})
		} else {
			out = append(out, a)
		}
	}
	if len(donor) > 0 && rng.Intn(2) == 0 {
		out = append(out, donor[rng.Intn(len(donor))])
	}
	return out
}

// generateScript derives a deterministic URI-addressed op script honoring
// the mix.
func generateScript(t *testing.T, kind entity.Kind, seed int64, n int, mix opMix) []incremental.Op {
	t.Helper()
	descs := pool(t, kind, seed)
	rng := rand.New(rand.NewSource(seed * 104729))
	liveIdx := map[int]bool{}
	var liveList []int
	removeLive := func(pos int) {
		liveList[pos] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
	}
	chooseOp := func() incremental.OpKind {
		if len(liveList) == 0 {
			return incremental.OpInsert
		}
		weights := [3]int{mix.insert, mix.update, mix.delete}
		if len(liveList) == len(descs) {
			weights[0] = 0
		}
		roll := rng.Intn(weights[0] + weights[1] + weights[2])
		if roll < weights[0] {
			return incremental.OpInsert
		}
		if roll < weights[0]+weights[1] {
			return incremental.OpUpdate
		}
		return incremental.OpDelete
	}
	ops := make([]incremental.Op, 0, n)
	for len(ops) < n {
		switch chooseOp() {
		case incremental.OpInsert:
			pi := rng.Intn(len(descs))
			if liveIdx[pi] {
				continue
			}
			ops = append(ops, incremental.Op{
				Kind: incremental.OpInsert, URI: descs[pi].URI,
				Source: descs[pi].Source, Attrs: descs[pi].Attrs,
			})
			liveIdx[pi] = true
			liveList = append(liveList, pi)
		case incremental.OpUpdate:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			donor := descs[rng.Intn(len(descs))]
			ops = append(ops, incremental.Op{
				Kind: incremental.OpUpdate, URI: descs[pi].URI,
				Attrs: mutate(rng, descs[pi].Attrs, donor.Attrs),
			})
		default:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			ops = append(ops, incremental.Op{Kind: incremental.OpDelete, URI: descs[pi].URI})
			delete(liveIdx, pi)
			removeLive(pos)
		}
	}
	return ops
}

// renderState renders a match set and its clusters deterministically.
func renderState(m *entity.Matches) string {
	ps := m.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return fmt.Sprintf("matches=%v\nclusters=%v\n", ps, m.Clusters())
}

// renderBlocks renders a block collection byte-exactly.
func renderBlocks(bs *blocking.Blocks) string {
	if bs == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, bl := range bs.All() {
		fmt.Fprintf(&b, "%s|%v|%v\n", bl.Key, bl.S0, bl.S1)
	}
	return b.String()
}

// assertShardedEqualsSingle compares every observable of the sharded
// resolver against the single-node reference, bit for bit.
func assertShardedEqualsSingle(t *testing.T, sh *sharded.Resolver, single *incremental.Resolver, meta bool, step int) {
	t.Helper()
	gs, ws := mustStats(t, sh), mustStats(t, single)
	if gs != ws {
		t.Fatalf("step %d: stats diverge:\nsharded    %+v\nsingle-node %+v", step, gs, ws)
	}
	if g, w := renderState(mustMatches(t, sh)), renderState(mustMatches(t, single)); g != w {
		t.Fatalf("step %d: match state diverges:\nsharded\n%s\nsingle-node\n%s", step, g, w)
	}
	if g, w := renderBlocks(sh.Blocks()), renderBlocks(single.Blocks()); g != w {
		t.Fatalf("step %d: blocks diverge:\nsharded\n%s\nsingle-node\n%s", step, g, w)
	}
	if meta {
		if g, w := renderBlocks(mustRestructuredBlocks(t, sh)), renderBlocks(mustRestructuredBlocks(t, single)); g != w {
			t.Fatalf("step %d: restructured blocks diverge:\nsharded\n%s\nsingle-node\n%s", step, g, w)
		}
	}
}

// assertBatchEquivalence snapshots the sharded resolver and checks the
// batch pipeline over the snapshot reproduces its matches.
func assertBatchEquivalence(t *testing.T, sh *sharded.Resolver, blocker blocking.StreamableBlocker, meta *metablocking.MetaBlocker, m *matching.Matcher, step int) {
	t.Helper()
	snap, matches := mustSnapshot(t, sh)
	batch := &core.Pipeline{Blocker: blocker, Meta: meta, Matcher: m, Mode: core.Batch}
	res, err := batch.Run(context.Background(), snap)
	if err != nil {
		t.Fatalf("step %d: batch run: %v", step, err)
	}
	if g, w := renderState(matches), renderState(res.Matches); g != w {
		t.Fatalf("step %d: sharded state diverges from batch over %d live descriptions:\nsharded\n%s\nbatch\n%s",
			step, snap.Len(), g, w)
	}
}

// shardedDiffConfig is one cross-shard differential scenario.
type shardedDiffConfig struct {
	kind    entity.Kind
	blocker blocking.StreamableBlocker
	meta    *metablocking.MetaBlocker
	workers int
	shards  int
	seed    int64
	ops     int
	mix     opMix
}

func (dc shardedDiffConfig) String() string {
	s := fmt.Sprintf("%s/%s/n%d/w%d/%s/seed%d", dc.kind, dc.blocker.Name(), dc.shards, dc.workers, dc.mix.name, dc.seed)
	if dc.meta != nil {
		s += "/" + dc.meta.Name()
	}
	return s
}

// runShardedDifferential drives one scenario: the same op script through
// the single-node and the sharded resolver, with lockstep reads.
func runShardedDifferential(t *testing.T, dc shardedDiffConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, dc.kind, dc.seed, dc.ops, dc.mix)
	single, err := incremental.New(incremental.Config{
		Kind: dc.kind, Blocker: dc.blocker, Matcher: matcher, Workers: dc.workers, Meta: dc.meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sharded.New(sharded.Config{
		Kind: dc.kind, Blocker: dc.blocker, Matcher: matcher, Workers: dc.workers, Meta: dc.meta, Shards: dc.shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Shards(); got != dc.shards {
		t.Fatalf("resolver reports %d shards, configured %d", got, dc.shards)
	}
	ctx := context.Background()
	for i, op := range script {
		if err := single.Apply(ctx, op); err != nil {
			t.Fatalf("op %d (%s %s): single-node: %v", i, op.Kind, op.URI, err)
		}
		if err := sh.Apply(ctx, op); err != nil {
			t.Fatalf("op %d (%s %s): sharded: %v", i, op.Kind, op.URI, err)
		}
		// Reads reconcile under meta-blocking, so both resolvers follow the
		// same read schedule; checkpoints mid-stream and at the end.
		if (i+1)%50 == 0 || i+1 == len(script) {
			assertShardedEqualsSingle(t, sh, single, dc.meta != nil, i+1)
		}
	}
	assertBatchEquivalence(t, sh, dc.blocker, dc.meta, matcher, dc.ops)
}

// TestShardedDifferential is the acceptance matrix: 3 seeds × op mixes
// replayed at shard counts {1, 2, 4, 7}, plus clean-clean, alternate
// blocker and sequential-worker probes — all bit-exact vs the single-node
// resolver and vs batch.
func TestShardedDifferential(t *testing.T) {
	var configs []shardedDiffConfig
	seeds := []int64{101, 102, 103}
	for si, seed := range seeds {
		for _, n := range []int{1, 2, 4, 7} {
			configs = append(configs, shardedDiffConfig{
				kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
				workers: 4, shards: n, seed: seed, ops: 200, mix: opMixes[si%len(opMixes)],
			})
		}
	}
	configs = append(configs,
		// Clean-clean streams: only cross-source pairs may match, and the
		// delta frontier is bipartite per shard.
		shardedDiffConfig{
			kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
			workers: 4, shards: 4, seed: 104, ops: 200, mix: opMixes[1],
		},
		// Alternate streamable blockers partition different key shapes.
		shardedDiffConfig{
			kind: entity.Dirty, blocker: &blocking.StandardBlocking{},
			workers: 2, shards: 3, seed: 105, ops: 160, mix: opMixes[2],
		},
		shardedDiffConfig{
			kind: entity.Dirty, blocker: &blocking.QGramsBlocking{Q: 3},
			workers: 1, shards: 5, seed: 106, ops: 140, mix: opMixes[0],
		},
	)
	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && (dc.seed > 101 || dc.shards > 4) {
				t.Skip("short mode runs the first seed at small shard counts only")
			}
			t.Parallel()
			runShardedDifferential(t, dc)
		})
	}
}

// TestShardedDifferentialMetaBlocking extends the matrix to live
// meta-blocking: the shards maintain per-key-space weighted graphs, the
// coordinator merges and prunes globally, and matches, comparison counts
// AND restructured blocks must equal the single-node resolver bit for bit
// at every checkpoint and shard count.
func TestShardedDifferentialMetaBlocking(t *testing.T) {
	var configs []shardedDiffConfig
	metas := []*metablocking.MetaBlocker{
		{Weight: metablocking.CBS, Prune: metablocking.WEP},
		{Weight: metablocking.ECBS, Prune: metablocking.WNP},
		{Weight: metablocking.JS, Prune: metablocking.WEP},
	}
	for mi, meta := range metas {
		for _, n := range []int{2, 4, 7} {
			configs = append(configs, shardedDiffConfig{
				kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, meta: meta,
				workers: 4, shards: n, seed: int64(121 + mi), ops: 140, mix: opMixes[mi%len(opMixes)],
			})
		}
	}
	configs = append(configs, shardedDiffConfig{
		kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
		meta:    &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP, Reciprocal: true},
		workers: 4, shards: 4, seed: 124, ops: 140, mix: opMixes[1],
	})
	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && (dc.seed != 121 || dc.shards > 2) {
				t.Skip("short mode runs the first meta scenario only")
			}
			t.Parallel()
			runShardedDifferential(t, dc)
		})
	}
}

// TestShardedValidation: the sharded resolver rejects exactly what the
// single-node resolver rejects, with the same reasons, plus its own
// shard-count pathologies handled.
func TestShardedValidation(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	if _, err := sharded.New(sharded.Config{Blocker: &blocking.TokenBlocking{}, Shards: 2}); err == nil {
		t.Fatal("missing matcher accepted")
	}
	if _, err := sharded.New(sharded.Config{Matcher: matcher, Shards: 2}); err == nil {
		t.Fatal("missing blocker accepted")
	}
	if _, err := sharded.New(sharded.Config{
		Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Shards: 2,
		Meta: &metablocking.MetaBlocker{Weight: metablocking.EJS, Prune: metablocking.WEP},
	}); err == nil {
		t.Fatal("batch-only meta scheme accepted")
	}
	// Shards <= 0 normalizes to 1 and still streams correctly.
	r, err := sharded.New(sharded.Config{Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", r.Shards())
	}
	if _, err := r.Insert(context.Background(), entity.NewDescription("u:x").Add("name", "x")); err != nil {
		t.Fatal(err)
	}
	// Lifecycle on an in-memory resolver is refused.
	if err := r.StopShard(0); err == nil {
		t.Fatal("StopShard on an in-memory resolver accepted")
	}
}
