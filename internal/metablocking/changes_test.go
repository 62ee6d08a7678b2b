package metablocking

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
)

// The change-tracking substrate under the delta snapshot chain: a tracker
// registered at birth sees every mutation, DeltaSince renders exactly the
// touched statistics, and ApplyDelta advances a restored baseline to the
// same graph — the round trip the durable resolver's chained checkpoints
// perform.

func TestChangeSetDeltaRoundTrip(t *testing.T) {
	m := MetaBlocker{Weight: JS, Prune: WNP}
	sb := &blocking.TokenBlocking{}
	keyer := sb.StreamKeyer()
	bi := blocking.NewBlockIndex(entity.Dirty)
	wgA := NewWeightedGraph(entity.Dirty)
	bi.Observe(wgA)
	cs := wgA.Track()
	if !cs.Empty() {
		t.Fatal("fresh tracker already dirty")
	}
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 31, Entities: 30, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	descs := c.All()
	for _, d := range descs[:20] {
		if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Empty() {
		t.Fatal("mutations left the tracker clean")
	}

	// First link: a tracker-from-birth delta restores the whole graph.
	wgB := NewWeightedGraph(entity.Dirty)
	if err := wgB.ApplyDelta(wgA.DeltaSince(cs), true); err != nil {
		t.Fatal(err)
	}
	assertKeptEquals(t, 1,
		keptMap(m.PruneGraph(wgB.Graph(m.Weight), nil)),
		keptMap(m.PruneGraph(wgA.Graph(m.Weight), nil)))
	if !cs.Empty() {
		t.Fatal("DeltaSince did not drain the tracker")
	}

	// Second link over mixed churn — removals shrink entries to zero,
	// which the delta must carry as deletions.
	for _, d := range descs[:10] {
		bi.Remove(d.ID)
	}
	for _, d := range descs[20:] {
		if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wgB.ApplyDelta(wgA.DeltaSince(cs), false); err != nil {
		t.Fatal(err)
	}
	assertKeptEquals(t, 2,
		keptMap(m.PruneGraph(wgB.Graph(m.Weight), nil)),
		keptMap(m.PruneGraph(wgA.Graph(m.Weight), nil)))

	// Reset discards accumulated dirt without rendering it.
	bi.Remove(descs[15].ID)
	if cs.Empty() {
		t.Fatal("removal left the tracker clean")
	}
	cs.Reset()
	if !cs.Empty() {
		t.Fatal("Reset left the tracker dirty")
	}
	if d := wgA.DeltaSince(cs); len(d.Pairs) != 0 || len(d.BlocksPer) != 0 {
		t.Fatalf("delta after Reset still carries entries: %+v", d)
	}

	// Malformed links fail loudly.
	if err := wgB.ApplyDelta(nil, false); err == nil {
		t.Fatal("nil delta accepted")
	}
	if err := wgB.ApplyDelta(&WeightedGraphDelta{NumBlocks: -1}, false); err == nil {
		t.Fatal("negative block count accepted")
	}
}

// TestDeltaPrunerAccessorsAndRequeue pins the pruner's bookkeeping
// surface — Pending/Examined/KeptCount — and the Requeue contract: pairs
// returned after a failed evaluation are re-derived identically by the
// next Sync. The scenario's three same-token descriptions weigh every
// edge exactly at the WEP mean, exercising the exact tie verdict.
func TestDeltaPrunerAccessorsAndRequeue(t *testing.T) {
	m := MetaBlocker{Weight: CBS, Prune: WEP}
	sb := &blocking.TokenBlocking{}
	keyer := sb.StreamKeyer()
	bi := blocking.NewBlockIndex(entity.Dirty)
	wg := NewWeightedGraph(entity.Dirty)
	bi.Observe(wg)
	p := NewDeltaPruner(wg, m)
	if p.Pending() {
		t.Fatal("fresh pruner reports pending work")
	}
	for i, uri := range []string{"u:a", "u:b", "u:c"} {
		d := &entity.Description{ID: entity.ID(i), URI: uri,
			Attrs: []entity.Attribute{{Name: "name", Value: "samename"}}}
		if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Pending() {
		t.Fatal("tracked mutations not pending")
	}
	refates := p.Sync()
	if len(refates) != 3 {
		t.Fatalf("Sync derived %d refates, want the 3 tied pairs", len(refates))
	}
	examined := p.Examined()
	if examined <= 0 {
		t.Fatal("Sync examined nothing")
	}
	for _, f := range refates {
		// Every pair's weight sits exactly on the WEP mean; the exact tie
		// verdict keeps them (mean membership is inclusive).
		if !f.Kept {
			t.Fatalf("tied pair %+v dropped", f)
		}
	}

	// A failed evaluation hands the fates back; the unchanged graph and
	// kept set must re-derive them identically.
	p.Requeue(refates)
	if !p.Pending() {
		t.Fatal("requeued pairs not pending")
	}
	again := p.Sync()
	if p.Examined() <= examined {
		t.Fatal("re-derivation not counted as examined work")
	}
	want := map[entity.Pair]Refate{}
	for _, f := range refates {
		want[f.Pair] = f
	}
	if len(again) != len(want) {
		t.Fatalf("re-derived %d refates, want %d", len(again), len(want))
	}
	for _, f := range again {
		if want[f.Pair] != f {
			t.Fatalf("re-derived fate diverged: %+v vs %+v", f, want[f.Pair])
		}
	}
	p.Apply(again)
	if p.KeptCount() != 3 || p.KeptCount() != len(p.KeptEdges()) {
		t.Fatalf("KeptCount %d disagrees with KeptEdges %d", p.KeptCount(), len(p.KeptEdges()))
	}
}

// TestExactSumZeroAndReset: the exact accumulator cancels bit-for-bit and
// empties on Reset — the invariants the incremental WEP mean rides on.
func TestExactSumZeroAndReset(t *testing.T) {
	var s exactSum
	if !s.IsZero() {
		t.Fatal("zero-value sum not zero")
	}
	s.Add(0.1)
	s.Add(0.2)
	if s.IsZero() {
		t.Fatal("non-empty sum reports zero")
	}
	s.Sub(0.2)
	s.Sub(0.1)
	if !s.IsZero() {
		t.Fatal("exact cancellation left a residue")
	}
	s.Add(1.5)
	s.Reset()
	if !s.IsZero() {
		t.Fatal("Reset left a residue")
	}
}
