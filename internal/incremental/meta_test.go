package incremental_test

import (
	"context"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

func metaResolver(t *testing.T, workers int) (*incremental.Resolver, *entity.Collection, *core.Pipeline) {
	t.Helper()
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 31, Entities: 60, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	meta := &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WNP}
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	r, err := incremental.New(incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: matcher,
		Workers: workers,
		Meta:    meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := &core.Pipeline{Blocker: &blocking.TokenBlocking{}, Meta: meta, Matcher: matcher, Mode: core.Batch}
	return r, c, batch
}

// TestMetaFlushCancellation: a cancelled Flush leaves the resolved state
// exactly as it was — no partial matches, no counted comparisons — and the
// deferred work stays pending until a later read settles it.
func TestMetaFlushCancellation(t *testing.T) {
	r, c, batch := metaResolver(t, 4)
	ctx := context.Background()
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := r.Flush(cancelled); err == nil {
		t.Fatal("cancelled Flush succeeded")
	}
	// Reads reconcile lazily, so the first Stats call settles the pending
	// work and the result equals the batch meta pipeline.
	want, err := batch.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	if st.Comparisons != want.Comparisons {
		t.Fatalf("comparisons after retry = %d, batch = %d", st.Comparisons, want.Comparisons)
	}
	if st.Matches != want.Matches.Len() {
		t.Fatalf("matches after retry = %d, batch = %d", st.Matches, want.Matches.Len())
	}
	// A second Flush with nothing pending is a no-op.
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// The restructured rendering equals batch meta-blocking's emission:
	// same pair blocks, same descending-weight order (handles are dense
	// insert-order IDs, so they line up with the batch collection).
	got, wantBs := mustRestructuredBlocks(t, r), want.Blocks
	if got.Len() != wantBs.Len() {
		t.Fatalf("restructured blocks = %d, batch = %d", got.Len(), wantBs.Len())
	}
	for i, b := range got.All() {
		w := wantBs.Get(i)
		if b.Key != w.Key {
			t.Fatalf("restructured block %d key = %q, batch = %q", i, b.Key, w.Key)
		}
	}
}

// TestMetaDeferredReads: every read accessor settles the deferred state;
// deletes retire pruned-in matches that the shrunken graph no longer
// keeps.
func TestMetaDeferredReads(t *testing.T) {
	r, c, _ := metaResolver(t, 1)
	ctx := context.Background()
	ids := make([]entity.ID, 0, c.Len())
	for _, d := range c.All() {
		id, err := r.Insert(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if n := mustMatches(t, r).Len(); n <= 0 {
		t.Fatal("no matches after replay")
	}
	st := mustStats(t, r)
	if st.CandidatePairs < st.KeptPairs || st.KeptPairs <= 0 {
		t.Fatalf("counters kept=%d candidates=%d", st.KeptPairs, st.CandidatePairs)
	}
	// Delete half the stream; the maintained state must still equal a
	// from-scratch batch run (checked exhaustively by the differential
	// suite; here: clusters readable and consistent with matches).
	for _, id := range ids[:len(ids)/2] {
		if err := r.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	m := mustMatches(t, r)
	clusters := mustClusters(t, r)
	total := 0
	for _, cl := range clusters {
		total += len(cl)
	}
	if m.Len() > 0 && total == 0 {
		t.Fatalf("matches=%d but no clusters", m.Len())
	}
}

// TestRestructuredBlocksWithoutMeta: nil without a Meta configuration.
func TestRestructuredBlocksWithoutMeta(t *testing.T) {
	r, err := incremental.New(incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs := mustRestructuredBlocks(t, r); bs != nil {
		t.Fatalf("RestructuredBlocks without meta = %v", bs)
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("Flush without meta: %v", err)
	}
}
