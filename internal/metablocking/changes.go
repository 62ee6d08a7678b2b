// Change tracking over WeightedGraph: the dirt feed of everything that
// wants to stay proportional to the delta instead of rescanning the graph.
// A tracker (ChangeSet) registered through Track receives every statistic
// the graph touches from that moment on — pairs whose co-occurrence counts
// moved, descriptions whose block-appearance counts moved, and whether the
// comparison-suggesting block count changed. Two independent consumers ride
// it today: the DeltaPruner (delta.go) drains one tracker per reconcile,
// and the durable resolver's delta snapshots (internal/incremental) drain
// another per checkpoint — their lifetimes differ, so each holds its own.
package metablocking

import (
	"fmt"
	"sort"

	"entityres/internal/entity"
)

// ChangeSet accumulates the statistics a WeightedGraph touched since the
// set was created or last drained. The zero value is not usable; obtain one
// through WeightedGraph.Track.
type ChangeSet struct {
	pairs  map[entity.Pair]struct{}
	nodes  map[entity.ID]struct{}
	blocks bool
}

func newChangeSet() *ChangeSet {
	return &ChangeSet{
		pairs: make(map[entity.Pair]struct{}),
		nodes: make(map[entity.ID]struct{}),
	}
}

// Empty reports whether nothing changed since the last drain.
func (c *ChangeSet) Empty() bool {
	return len(c.pairs) == 0 && len(c.nodes) == 0 && !c.blocks
}

// drain hands the accumulated dirt to the caller and resets the set.
func (c *ChangeSet) drain() (pairs map[entity.Pair]struct{}, nodes map[entity.ID]struct{}, blocks bool) {
	pairs, nodes, blocks = c.pairs, c.nodes, c.blocks
	c.pairs = make(map[entity.Pair]struct{}, 16)
	c.nodes = make(map[entity.ID]struct{}, 16)
	c.blocks = false
	return pairs, nodes, blocks
}

// Reset discards the accumulated dirt without rendering it — the consumer
// captured the whole graph some other way (FullDelta) and the tracked
// changes are subsumed.
func (c *ChangeSet) Reset() {
	c.drain()
}

// Track registers and returns a fresh change set: it sees nothing of the
// graph's existing state (consumers that need a baseline build it
// themselves) and every mutation from now on.
func (wg *WeightedGraph) Track() *ChangeSet {
	cs := newChangeSet()
	wg.trackers = append(wg.trackers, cs)
	return cs
}

func (wg *WeightedGraph) markPair(p entity.Pair) {
	for _, t := range wg.trackers {
		t.pairs[p] = struct{}{}
	}
}

func (wg *WeightedGraph) markNode(id entity.ID) {
	for _, t := range wg.trackers {
		t.nodes[id] = struct{}{}
	}
}

func (wg *WeightedGraph) markBlocks() {
	for _, t := range wg.trackers {
		t.blocks = true
	}
}

// WeightedGraphDelta is the serializable form of a tracked graph's
// statistics: the entries a ChangeSet saw touched (DeltaSince), or every
// entry (FullDelta), with their CURRENT values — a zero count marks a
// removed entry. It is the graph's one persistence shape: the durable
// streaming resolver chains these into its snapshot links, and a full
// rendering applied to an empty graph is the chain's parentless anchor.
type WeightedGraphDelta struct {
	// NumBlocks is the absolute comparison-suggesting block count at delta
	// time (one integer — not worth differencing).
	NumBlocks int `json:"num_blocks"`
	// BlocksPer lists the touched descriptions' current block-appearance
	// counts, ID ascending; Count 0 removes the entry.
	BlocksPer []DocBlockCount `json:"blocks_per,omitempty"`
	// Pairs lists the touched pairs' current statistics, (A, B) ascending;
	// CBS 0 removes the pair.
	Pairs []PairStats `json:"pairs,omitempty"`
}

// DocBlockCount is one description's block-appearance count.
type DocBlockCount struct {
	ID    entity.ID `json:"id"`
	Count int       `json:"count"`
}

// PairStats is one pair's co-occurrence statistics.
type PairStats struct {
	A    entity.ID `json:"a"`
	B    entity.ID `json:"b"`
	CBS  int       `json:"cbs"`
	ARCS float64   `json:"arcs,omitempty"`
}

// DeltaSince drains the tracker and renders the touched statistics at
// their current values, in the deterministic snapshot order.
func (wg *WeightedGraph) DeltaSince(cs *ChangeSet) *WeightedGraphDelta {
	pairs, nodes, _ := cs.drain()
	d := &WeightedGraphDelta{NumBlocks: wg.numBlocks}
	for id := range nodes {
		d.BlocksPer = append(d.BlocksPer, DocBlockCount{ID: id, Count: wg.blocksPer[id]})
	}
	for p := range pairs {
		ps := PairStats{A: p.A, B: p.B}
		if st, ok := wg.pairs[p]; ok {
			ps.CBS, ps.ARCS = st.cbs, st.arcs
		}
		d.Pairs = append(d.Pairs, ps)
	}
	d.sort()
	return d
}

// FullDelta renders every statistic of the graph — the delta from an
// empty graph. Two graphs with equal statistics render identically,
// whatever maintenance regime produced them.
func (wg *WeightedGraph) FullDelta() *WeightedGraphDelta {
	d := &WeightedGraphDelta{
		NumBlocks: wg.numBlocks,
		BlocksPer: make([]DocBlockCount, 0, len(wg.blocksPer)),
		Pairs:     make([]PairStats, 0, len(wg.pairs)),
	}
	for id, n := range wg.blocksPer {
		d.BlocksPer = append(d.BlocksPer, DocBlockCount{ID: id, Count: n})
	}
	for p, st := range wg.pairs {
		d.Pairs = append(d.Pairs, PairStats{A: p.A, B: p.B, CBS: st.cbs, ARCS: st.arcs})
	}
	d.sort()
	return d
}

func (d *WeightedGraphDelta) sort() {
	sort.Slice(d.BlocksPer, func(i, j int) bool { return d.BlocksPer[i].ID < d.BlocksPer[j].ID })
	sort.Slice(d.Pairs, func(i, j int) bool {
		if d.Pairs[i].A != d.Pairs[j].A {
			return d.Pairs[i].A < d.Pairs[j].A
		}
		return d.Pairs[i].B < d.Pairs[j].B
	})
}

// ApplyDelta overwrites the delta's entries onto the graph, advancing a
// restored baseline by one chain link. An anchor link (the parentless
// first link of a chain) must apply to an empty graph and may not carry
// removal entries. The whole delta is validated before any entry is
// written: counts are non-negative, pairs canonical (A < B), and both
// lists strictly ascending, so no entry appears twice. Registered trackers
// observe the writes like any mutation.
func (wg *WeightedGraph) ApplyDelta(d *WeightedGraphDelta, anchor bool) error {
	if d == nil {
		return fmt.Errorf("metablocking: nil weighted-graph delta")
	}
	if d.NumBlocks < 0 {
		return fmt.Errorf("metablocking: delta has negative block count %d", d.NumBlocks)
	}
	if anchor && (wg.numBlocks != 0 || len(wg.blocksPer) != 0 || len(wg.pairs) != 0) {
		return fmt.Errorf("metablocking: anchor delta applied to a non-empty graph")
	}
	for i, bc := range d.BlocksPer {
		if bc.Count < 0 || (anchor && bc.Count == 0) {
			return fmt.Errorf("metablocking: delta credits description %d with %d blocks", bc.ID, bc.Count)
		}
		if i > 0 && bc.ID <= d.BlocksPer[i-1].ID {
			return fmt.Errorf("metablocking: delta lists description %d out of order or twice", bc.ID)
		}
	}
	for i, ps := range d.Pairs {
		if ps.A >= ps.B {
			return fmt.Errorf("metablocking: delta pair (%d,%d) is not in canonical A<B form", ps.A, ps.B)
		}
		if ps.CBS < 0 || (anchor && ps.CBS == 0) {
			return fmt.Errorf("metablocking: delta pair (%d,%d) has CBS %d", ps.A, ps.B, ps.CBS)
		}
		if i > 0 {
			prev := d.Pairs[i-1]
			if ps.A < prev.A || (ps.A == prev.A && ps.B <= prev.B) {
				return fmt.Errorf("metablocking: delta lists pair (%d,%d) out of order or twice", ps.A, ps.B)
			}
		}
	}
	if wg.numBlocks != d.NumBlocks {
		wg.numBlocks = d.NumBlocks
		wg.markBlocks()
	}
	for _, bc := range d.BlocksPer {
		if bc.Count == 0 {
			delete(wg.blocksPer, bc.ID)
		} else {
			wg.blocksPer[bc.ID] = bc.Count
		}
		wg.markNode(bc.ID)
	}
	for _, ps := range d.Pairs {
		p := entity.NewPair(ps.A, ps.B)
		if ps.CBS == 0 {
			delete(wg.pairs, p)
		} else {
			wg.pairs[p] = &stats{cbs: ps.CBS, arcs: ps.ARCS}
		}
		wg.markPair(p)
	}
	return nil
}
