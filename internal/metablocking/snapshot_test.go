package metablocking

import (
	"reflect"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

// snapshotFixture builds a weighted graph with non-trivial statistics.
func snapshotFixture(t *testing.T) *WeightedGraph {
	t.Helper()
	bs := blocking.NewBlocks(entity.Dirty)
	bs.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 1, 2}})
	bs.Add(&blocking.Block{Key: "b", S0: []entity.ID{1, 2, 3}})
	bs.Add(&blocking.Block{Key: "c", S0: []entity.ID{0, 3}})
	return FromBlocks(bs)
}

// restoreAnchor applies a full rendering to an empty graph — the
// parentless first link of a snapshot chain.
func restoreAnchor(t *testing.T, kind entity.Kind, d *WeightedGraphDelta) *WeightedGraph {
	t.Helper()
	wg := NewWeightedGraph(kind)
	if err := wg.ApplyDelta(d, true); err != nil {
		t.Fatal(err)
	}
	return wg
}

func TestWeightedGraphSnapshotRoundTrip(t *testing.T) {
	wg := snapshotFixture(t)
	snap := wg.FullDelta()
	got := restoreAnchor(t, wg.Kind(), snap)
	if got.Kind() != wg.Kind() || got.NumBlocks() != wg.NumBlocks() || got.NumPairs() != wg.NumPairs() {
		t.Fatalf("restored shape differs: kind %v/%v blocks %d/%d pairs %d/%d",
			got.Kind(), wg.Kind(), got.NumBlocks(), wg.NumBlocks(), got.NumPairs(), wg.NumPairs())
	}
	// Every weighting scheme materializes identical graphs from the
	// restored statistics — the restored snapshot is bit-exact.
	for _, scheme := range []WeightScheme{CBS, ECBS, JS, EJS, ARCS} {
		want := wg.Graph(scheme).Edges()
		have := got.Graph(scheme).Edges()
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("%v weights diverge after round trip:\nwant %v\ngot  %v", scheme, want, have)
		}
	}
	// Snapshots are deterministic: same statistics, same layout.
	if !reflect.DeepEqual(snap, got.FullDelta()) {
		t.Fatal("snapshot of restored graph differs from the original snapshot")
	}
}

func TestWeightedGraphSnapshotRestoredGraphKeepsMaintaining(t *testing.T) {
	// A restored graph continues under delta maintenance exactly as the
	// original. This mirrors the durable resolver's recovery sequence:
	// restore the graph from the snapshot, rebuild the block index WITHOUT
	// observers (or every Add would double-count into the restored
	// statistics), then attach the graph for subsequent deltas.
	seedIndex := func(bi *blocking.BlockIndex) {
		bi.Add(0, 0, []string{"x", "y"})
		bi.Add(1, 0, []string{"x"})
		bi.Add(2, 0, []string{"y", "z"})
	}
	live, wgLive := blocking.NewBlockIndex(entity.Dirty), NewWeightedGraph(entity.Dirty)
	live.Observe(wgLive)
	seedIndex(live)

	restored := restoreAnchor(t, entity.Dirty, wgLive.FullDelta())
	recovered := blocking.NewBlockIndex(entity.Dirty)
	seedIndex(recovered)        // membership rebuilt silently
	recovered.Observe(restored) // observe only after the rebuild

	// The same post-restore delta on both sides.
	for _, bi := range []*blocking.BlockIndex{live, recovered} {
		bi.Add(3, 0, []string{"z", "x"})
		bi.Remove(1)
	}
	if !reflect.DeepEqual(wgLive.FullDelta(), restored.FullDelta()) {
		t.Fatalf("restored graph drifts under continued maintenance:\nwant %+v\ngot  %+v", wgLive.FullDelta(), restored.FullDelta())
	}
}

func TestWeightedGraphSnapshotValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *WeightedGraphDelta)
	}{
		{"negative blocks", func(s *WeightedGraphDelta) { s.NumBlocks = -1 }},
		{"zero appearance count", func(s *WeightedGraphDelta) { s.BlocksPer[0].Count = 0 }},
		{"duplicate description", func(s *WeightedGraphDelta) { s.BlocksPer[1] = s.BlocksPer[0] }},
		{"non-canonical pair", func(s *WeightedGraphDelta) { s.Pairs[0].A, s.Pairs[0].B = s.Pairs[0].B, s.Pairs[0].A }},
		{"non-positive cbs", func(s *WeightedGraphDelta) { s.Pairs[0].CBS = 0 }},
		{"duplicate pair", func(s *WeightedGraphDelta) { s.Pairs[1] = s.Pairs[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := snapshotFixture(t).FullDelta()
			tc.mutate(s)
			wg := NewWeightedGraph(entity.Dirty)
			if err := wg.ApplyDelta(s, true); err == nil {
				t.Fatalf("validation accepted %s", tc.name)
			}
			if wg.NumBlocks() != 0 || wg.NumPairs() != 0 {
				t.Fatalf("rejected %s still wrote into the graph", tc.name)
			}
		})
	}
	if err := NewWeightedGraph(entity.Dirty).ApplyDelta(nil, true); err == nil {
		t.Fatal("validation accepted nil snapshot")
	}
	// Zero counts are removals: legal in a child link, refused in an
	// anchor, and an anchor only ever applies to an empty graph.
	removal := &WeightedGraphDelta{Pairs: []PairStats{{A: 0, B: 1}}}
	if err := snapshotFixture(t).ApplyDelta(removal, false); err != nil {
		t.Fatalf("child link refused a removal entry: %v", err)
	}
	if err := snapshotFixture(t).ApplyDelta(snapshotFixture(t).FullDelta(), true); err == nil {
		t.Fatal("anchor applied over a non-empty graph")
	}
	base := snapshotFixture(t).FullDelta()
	if err := NewWeightedGraph(entity.Dirty).ApplyDelta(base, true); err != nil {
		t.Fatalf("validation rejected a well-formed snapshot: %v", err)
	}
}
