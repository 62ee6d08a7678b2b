// The resolver's checkpoint format: one snapshot link type serves every
// checkpoint. A link lists collection slots, match-graph edges,
// weighted-graph statistics, cached matcher decisions and kept-baseline
// entries, each at its CURRENT value (a removal is an entry whose presence
// flag is false), plus the absolute counters, the last applied record and
// the deferred-work flag, and names its parent snapshot.
//
//   - A full checkpoint is the parentless link (Parent == 0), the anchor of
//     a chain. It lists every slot in handle order (dead slots as
//     content-free placeholders, so recovered handles equal the original
//     run's), every match edge, the whole weighted graph, every cached
//     decision and every kept pair — and no removal entries.
//   - A delta checkpoint lists only what the snapshot tracker
//     (deltasnap.go) saw dirtied since its parent.
//
// Every live slot carries its indexed blocking keys, so restore never
// re-runs the blocker's tokenization, and the weighted graph's
// co-occurrence statistics are stored rather than re-derived from posting
// lists.
//
// OpenResolver walks the newest snapshot's parent chain back to its anchor
// and applies the links oldest-first through applyDeltaSnapshot — the one
// restore path — to a pristine resolver whose weighted graph does not yet
// observe the block index (the links carry the statistics explicitly;
// observing the membership rebuild would double-count). checkRestored then
// refuses restored state naming handles the chain never made live, and
// finishRestore attaches the observer before the WAL tail replays.
//
// Every link carries a configuration fingerprint (kind, blocker, matcher,
// meta-blocker names): state written under one configuration refuses to
// load under another instead of silently diverging from the differential
// contract. A link in any other layout — including the separate full
// snapshot format 1 of earlier releases — fails with ErrSnapshotFormat.
package incremental

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/metablocking"
	"entityres/internal/wal"
)

// snapshotFormat versions the snapshot link layout.
const snapshotFormat = 2

// ErrSnapshotFormat marks a snapshot written in a layout this build does
// not read — a directory from an older release, or a foreign file. Open
// refuses it (errors.Is(err, ErrSnapshotFormat)) rather than start empty.
var ErrSnapshotFormat = errors.New("incremental: unsupported snapshot format")

// deltaSnapshotJSON is the wire form of one chain link.
type deltaSnapshotJSON struct {
	Format int `json:"format"`
	// Parent is the snapshot this link extends — the WAL segment sequence
	// its file is named after; 0 marks the chain's anchor.
	Parent  uint64 `json:"parent"`
	Kind    int    `json:"kind"`
	Blocker string `json:"blocker"`
	Matcher string `json:"matcher"`
	Meta    string `json:"meta,omitempty"`

	// SlotCount is the collection's slot count at checkpoint time; restore
	// verifies it so a missing new-slot entry fails loudly.
	SlotCount int             `json:"slot_count"`
	Slots     []deltaSlotJSON `json:"slots,omitempty"`
	Matches   []edgeDeltaJSON `json:"matches,omitempty"`

	Stats      statsJSON   `json:"stats"`
	LastRecord *recordJSON `json:"last_record,omitempty"`
	// LastSeq is the acknowledged routed-stream sequence number (routed.go);
	// 0 for resolvers fed through the direct methods.
	LastSeq uint64 `json:"last_seq,omitempty"`

	Weighted  *metablocking.WeightedGraphDelta `json:"weighted,omitempty"`
	SimCache  []cacheDeltaJSON                 `json:"sim_cache,omitempty"`
	Kept      []keptDeltaJSON                  `json:"kept,omitempty"`
	MetaDirty bool                             `json:"meta_dirty,omitempty"`
}

// deltaSlotJSON is one collection slot at its handle. Dead slots carry no
// content: only the handle they occupy matters.
type deltaSlotJSON struct {
	ID     int        `json:"id"`
	Live   bool       `json:"live,omitempty"`
	URI    string     `json:"uri,omitempty"`
	Source int        `json:"source,omitempty"`
	Attrs  []attrJSON `json:"attrs,omitempty"`
	// Keys is the slot's distinct sorted blocking key set, exactly as
	// indexed — restore feeds it straight back into the block index.
	Keys []string `json:"keys,omitempty"`
}

type statsJSON struct {
	Inserts     int64 `json:"inserts"`
	Updates     int64 `json:"updates"`
	Deletes     int64 `json:"deletes"`
	Comparisons int64 `json:"comparisons"`
}

type edgeDeltaJSON struct {
	A       entity.ID `json:"a"`
	B       entity.ID `json:"b"`
	Present bool      `json:"present,omitempty"`
}

type cacheDeltaJSON struct {
	A       entity.ID `json:"a"`
	B       entity.ID `json:"b"`
	Present bool      `json:"present,omitempty"`
	Match   bool      `json:"match,omitempty"`
}

type keptDeltaJSON struct {
	A    entity.ID `json:"a"`
	B    entity.ID `json:"b"`
	Kept bool      `json:"kept,omitempty"`
	W    float64   `json:"w,omitempty"`
}

func (e edgeDeltaJSON) ends() (entity.ID, entity.ID)  { return e.A, e.B }
func (e cacheDeltaJSON) ends() (entity.ID, entity.ID) { return e.A, e.B }
func (e keptDeltaJSON) ends() (entity.ID, entity.ID)  { return e.A, e.B }

// fingerprintMeta renders the configured meta-blocker for the snapshot
// fingerprint ("" without one).
func (r *Resolver) fingerprintMeta() string {
	if r.cfg.Meta == nil {
		return ""
	}
	return r.cfg.Meta.Name()
}

// encodeDeltaSnapshot renders one chain link and drains the snapshot
// tracker. With full set it renders everything — the parentless anchor —
// and otherwise only the tracked dirt, extending r.snapParent. It returns
// the payload plus the serialized slot and weighted-pair counts (the
// compaction-cost counters). Callers hold r.mu; a delta link requires the
// tracker.
func (r *Resolver) encodeDeltaSnapshot(full bool) ([]byte, int, int, error) {
	t := r.snapTrack
	s := deltaSnapshotJSON{
		Format:    snapshotFormat,
		Kind:      int(r.cfg.Kind),
		Blocker:   r.cfg.Blocker.Name(),
		Matcher:   r.cfg.Matcher.Name(),
		Meta:      r.fingerprintMeta(),
		SlotCount: r.coll.Len(),
		Stats: statsJSON{
			Inserts: r.stats.Inserts, Updates: r.stats.Updates,
			Deletes: r.stats.Deletes, Comparisons: r.stats.Comparisons,
		},
		LastSeq: r.lastSeq,
	}
	var (
		slots              []entity.ID
		edges, cache, kept []entity.Pair
	)
	if full {
		slots = make([]entity.ID, r.coll.Len())
		for i := range slots {
			slots[i] = i
		}
		for _, e := range r.dyn.SnapshotEdges() {
			edges = append(edges, entity.NewPair(e.A, e.B))
		}
		if r.weighted != nil {
			r.simCache.Each(func(a, b entity.ID, _ bool) bool {
				cache = append(cache, entity.Pair{A: a, B: b})
				return true
			})
			sortPairs(cache)
			for _, e := range r.lastKept {
				kept = append(kept, entity.Pair{A: e.A, B: e.B})
			}
		}
	} else {
		s.Parent = r.snapParent
		slots, edges = sortedIDs(t.slots), sortedPairs(t.pairs)
		cache, kept = sortedPairs(t.cache), sortedPairs(t.kept)
	}
	for _, id := range slots {
		if id >= r.coll.Len() {
			return nil, 0, 0, fmt.Errorf("incremental: snapshot tracked slot %d beyond the collection (%d slots)", id, r.coll.Len())
		}
		sl := deltaSlotJSON{ID: id, Live: r.live[id]}
		if sl.Live {
			d := r.coll.Get(id)
			sl.URI, sl.Source, sl.Attrs = d.URI, d.Source, attrsToJSON(d.Attrs)
			sl.Keys = r.blocks.Keys(id)
		}
		s.Slots = append(s.Slots, sl)
	}
	g := r.dyn.Graph()
	for _, p := range edges {
		_, present := g.Weight(p.A, p.B)
		s.Matches = append(s.Matches, edgeDeltaJSON{A: p.A, B: p.B, Present: present})
	}
	if r.lastRecord != nil {
		j := recordToJSON(*r.lastRecord)
		s.LastRecord = &j
	}
	if r.weighted != nil {
		if full {
			s.Weighted = r.weighted.FullDelta()
		} else {
			s.Weighted = r.weighted.DeltaSince(t.wg)
		}
		for _, p := range cache {
			sim, ok := r.simCache.Get(p.A, p.B)
			s.SimCache = append(s.SimCache, cacheDeltaJSON{A: p.A, B: p.B, Present: ok, Match: sim})
		}
		for _, p := range kept {
			w, ok := lookupKept(r.lastKept, p)
			s.Kept = append(s.Kept, keptDeltaJSON{A: p.A, B: p.B, Kept: ok, W: w})
		}
		s.MetaDirty = r.metaDirty
	}
	if t != nil {
		// A full link subsumes everything the tracker accumulated.
		t.reset()
		if full && t.wg != nil {
			t.wg.Reset()
		}
	}
	payload, err := json.Marshal(&s)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("incremental: %w", err)
	}
	pairs := 0
	if s.Weighted != nil {
		pairs = len(s.Weighted.Pairs)
	}
	return payload, len(s.Slots), pairs, nil
}

func sortedIDs(m map[entity.ID]struct{}) []entity.ID {
	out := make([]entity.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func sortedPairs(m map[entity.Pair]struct{}) []entity.Pair {
	out := make([]entity.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []entity.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// lookupKept finds p in the (A, B)-sorted kept baseline.
func lookupKept(kept []graph.Edge, p entity.Pair) (float64, bool) {
	i := sort.Search(len(kept), func(i int) bool {
		e := kept[i]
		return e.A > p.A || (e.A == p.A && e.B >= p.B)
	})
	if i < len(kept) && kept[i].A == p.A && kept[i].B == p.B {
		return kept[i].Weight, true
	}
	return 0, false
}

// checkPairs refuses a link's pair list unless every entry is a canonical
// (A < B) pair of handles below n, in strictly ascending order — so no
// pair appears twice.
func checkPairs[T interface{ ends() (entity.ID, entity.ID) }](what string, list []T, n int) error {
	for i, e := range list {
		a, b := e.ends()
		if a < 0 || a >= b || b >= n {
			return fmt.Errorf("incremental: snapshot %s (%d,%d) is not a canonical pair of the %d-slot collection", what, a, b, n)
		}
		if i > 0 {
			pa, pb := list[i-1].ends()
			if a < pa || (a == pa && b <= pb) {
				return fmt.Errorf("incremental: snapshot lists %s (%d,%d) out of order or twice", what, a, b)
			}
		}
	}
	return nil
}

// applyDeltaSnapshot advances the resolver by one chain link: the only
// restore path. The parentless anchor applies to a pristine resolver,
// every later link on top of its parent's state; both run before
// finishRestore, while the weighted graph does not observe the block index
// — the slot transitions below rebuild membership without double-counting
// statistics the links carry explicitly.
func (r *Resolver) applyDeltaSnapshot(payload []byte) error {
	var s deltaSnapshotJSON
	if err := json.Unmarshal(payload, &s); err != nil {
		return fmt.Errorf("incremental: decoding snapshot: %w", err)
	}
	anchor := s.Parent == 0
	if anchor && r.coll.Len() != 0 {
		return fmt.Errorf("incremental: parentless snapshot applied over %d restored slots", r.coll.Len())
	}
	if entity.Kind(s.Kind) != r.cfg.Kind {
		return fmt.Errorf("incremental: snapshot resolves %v collections, resolver configured for %v", entity.Kind(s.Kind), r.cfg.Kind)
	}
	if s.Blocker != r.cfg.Blocker.Name() {
		return fmt.Errorf("incremental: snapshot was written under blocker %q, resolver configured with %q", s.Blocker, r.cfg.Blocker.Name())
	}
	if s.Matcher != r.cfg.Matcher.Name() {
		return fmt.Errorf("incremental: snapshot was written under matcher %q, resolver configured with %q", s.Matcher, r.cfg.Matcher.Name())
	}
	if meta := r.fingerprintMeta(); s.Meta != meta {
		return fmt.Errorf("incremental: snapshot was written under meta-blocking %q, resolver configured with %q", s.Meta, meta)
	}
	if st := s.Stats; st.Inserts < 0 || st.Updates < 0 || st.Deletes < 0 || st.Comparisons < 0 {
		return fmt.Errorf("incremental: snapshot carries negative counters %+v", st)
	}

	// Slots, handle-ascending. New slots (id == current length) are
	// appended as dead placeholders first, then transitioned like any other
	// slot; every slot created since the parent is in the link, so the
	// ascending walk never leaves a gap.
	prev := -1
	for i, dsl := range s.Slots {
		if dsl.ID <= prev {
			return fmt.Errorf("incremental: snapshot slots out of order at entry %d", i)
		}
		prev = dsl.ID
		if dsl.ID > r.coll.Len() {
			return fmt.Errorf("incremental: snapshot skips slots %d..%d — a chain link is missing state", r.coll.Len(), dsl.ID-1)
		}
		id := dsl.ID
		if id == r.coll.Len() {
			r.coll.MustAdd(&entity.Description{ID: -1})
			r.live = append(r.live, false)
		}
		// Transition: clear the slot's previous live state, then install the
		// link's. Old URIs are unmapped before new ones are claimed; a URI
		// can only ever move to a HIGHER slot between snapshots (inserts
		// validate global uniqueness, so the old holder died first), and the
		// ascending walk clears it before the new holder appears.
		if r.live[id] {
			old := r.coll.Get(id)
			if old.URI != "" {
				delete(r.byURI, old.URI)
			}
			r.blocks.Remove(id)
			r.liveCount--
		}
		d := r.coll.Get(id)
		d.URI, d.Source, d.Attrs = "", 0, nil
		r.live[id] = dsl.Live
		if !dsl.Live {
			continue
		}
		d.URI, d.Source, d.Attrs = dsl.URI, dsl.Source, attrsFromJSON(dsl.Attrs)
		r.liveCount++
		if d.URI != "" {
			if _, dup := r.byURI[d.URI]; dup {
				return fmt.Errorf("incremental: snapshot maps URI %q to two live slots", d.URI)
			}
			r.byURI[d.URI] = id
		}
		if err := r.blocks.Add(id, d.Source, dsl.Keys); err != nil {
			return fmt.Errorf("incremental: snapshot slot %d: %w", dsl.ID, err)
		}
	}
	n := r.coll.Len()
	if n != s.SlotCount {
		return fmt.Errorf("incremental: snapshot expects %d slots, chain produced %d", s.SlotCount, n)
	}

	if err := checkPairs("match", s.Matches, n); err != nil {
		return err
	}
	for _, e := range s.Matches {
		switch {
		case !e.Present && anchor:
			return fmt.Errorf("incremental: parentless snapshot removes match (%d,%d)", e.A, e.B)
		case !e.Present:
			r.dyn.RemoveEdge(e.A, e.B)
		case !r.isLive(e.A) || !r.isLive(e.B):
			return fmt.Errorf("incremental: snapshot match (%d,%d) references a dead slot", e.A, e.B)
		default:
			r.dyn.AddEdge(e.A, e.B, 1)
		}
	}

	if r.cfg.Meta != nil {
		if s.Weighted == nil {
			return fmt.Errorf("incremental: snapshot lacks the weighted blocking graph the meta configuration requires")
		}
		if err := r.weighted.ApplyDelta(s.Weighted, anchor); err != nil {
			return fmt.Errorf("incremental: snapshot weighted graph: %w", err)
		}
		if err := checkPairs("cached decision", s.SimCache, n); err != nil {
			return err
		}
		if err := checkPairs("kept pair", s.Kept, n); err != nil {
			return err
		}
		for _, c := range s.SimCache {
			switch {
			case !c.Present && anchor:
				return fmt.Errorf("incremental: parentless snapshot removes cached decision (%d,%d)", c.A, c.B)
			case c.Present:
				r.simCache.Set(c.A, c.B, c.Match)
			default:
				r.simCache.Delete(c.A, c.B)
			}
		}
		for _, k := range s.Kept {
			if !k.Kept && anchor {
				return fmt.Errorf("incremental: parentless snapshot removes kept pair (%d,%d)", k.A, k.B)
			}
		}
		if len(s.Kept) > 0 {
			r.lastKept = applyKeptDeltas(r.lastKept, s.Kept)
		}
		r.metaDirty = s.MetaDirty
	}

	if s.LastRecord != nil {
		rec, err := recordFromJSON(*s.LastRecord)
		if err != nil {
			return fmt.Errorf("incremental: snapshot last record: %w", err)
		}
		r.lastRecord = &rec
	}
	r.stats.Inserts = s.Stats.Inserts
	r.stats.Updates = s.Stats.Updates
	r.stats.Deletes = s.Stats.Deletes
	r.stats.Comparisons = s.Stats.Comparisons
	r.lastSeq = s.LastSeq
	return nil
}

// applyKeptDeltas merges re-fated entries into the (A, B)-sorted kept
// baseline and returns it re-sorted.
func applyKeptDeltas(kept []graph.Edge, deltas []keptDeltaJSON) []graph.Edge {
	m := make(map[entity.Pair]float64, len(kept))
	for _, e := range kept {
		m[entity.NewPair(e.A, e.B)] = e.Weight
	}
	for _, d := range deltas {
		p := entity.NewPair(d.A, d.B)
		if d.Kept {
			m[p] = d.W
		} else {
			delete(m, p)
		}
	}
	out := make([]graph.Edge, 0, len(m))
	for p, w := range m {
		out = append(out, graph.Edge{A: p.A, B: p.B, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// checkRestored runs once the whole chain has applied and refuses a state
// no run could have checkpointed: match edges must join live slots (a
// later link may have killed a slot an earlier one matched). Under
// meta-blocking every weighted statistic must name live, indexed handles
// — the first reconcile evaluates them — no pair may share more blocks
// than either endpoint appears in, and no description more blocks than
// exist. Kept pairs must name live, indexed handles too, except while
// deferred work is pending: deletions since the last reconcile linger in
// the baseline until that reconcile retires them without evaluating them.
func (r *Resolver) checkRestored() error {
	var err error
	r.dyn.Graph().EachEdge(func(e graph.Edge) bool {
		if !r.isLive(e.A) || !r.isLive(e.B) {
			err = fmt.Errorf("incremental: snapshot match (%d,%d) references a dead slot", e.A, e.B)
		}
		return err == nil
	})
	if err != nil || r.weighted == nil {
		return err
	}
	indexed := func(id entity.ID) bool {
		_, ok := r.blocks.SourceOf(id)
		return ok && r.isLive(id)
	}
	r.weighted.EachNode(func(id entity.ID, blocks int) bool {
		switch {
		case !indexed(id):
			err = fmt.Errorf("incremental: snapshot weighted graph credits handle %d, which is not live and indexed", id)
		case blocks > r.weighted.NumBlocks():
			err = fmt.Errorf("incremental: snapshot weighted graph puts handle %d in %d of %d blocks", id, blocks, r.weighted.NumBlocks())
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	r.weighted.EachPair(func(p entity.Pair, cbs int) bool {
		switch {
		case !indexed(p.A) || !indexed(p.B):
			err = fmt.Errorf("incremental: snapshot weighted pair (%d,%d) names a handle that is not live and indexed", p.A, p.B)
		case cbs > r.weighted.BlockCount(p.A) || cbs > r.weighted.BlockCount(p.B):
			err = fmt.Errorf("incremental: snapshot weighted pair (%d,%d) shares %d blocks, more than an endpoint appears in", p.A, p.B, cbs)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if !r.metaDirty {
		for _, e := range r.lastKept {
			if !indexed(e.A) || !indexed(e.B) {
				return fmt.Errorf("incremental: snapshot kept pair (%d,%d) names a handle that is not live and indexed", e.A, e.B)
			}
		}
	}
	return nil
}

// finishRestore attaches the restored weighted graph to the block index's
// membership feed — the last restore step, after every snapshot chain link
// has applied.
func (r *Resolver) finishRestore() {
	if r.weighted != nil {
		r.blocks.Observe(r.weighted)
	}
}

// loadSnapshotChain reads the snapshot chain ending at tip: every link's
// payload NEWEST FIRST (callers apply them in reverse), ending with the
// parentless anchor, plus the anchor's sequence. Every link the chain names
// must be on disk — Checkpoint never removes a snapshot a newer one still
// depends on, so a missing link means the directory was tampered with and
// recovery refuses rather than restore a silently wrong state.
func loadSnapshotChain(dir string, tip uint64) (links [][]byte, anchor uint64, err error) {
	seq := tip
	for {
		payload, err := wal.ReadFileFramed(filepath.Join(dir, snapshotFile(seq)))
		if err != nil {
			return nil, 0, fmt.Errorf("incremental: reading snapshot chain link %d: %w", seq, err)
		}
		var head struct {
			Format int    `json:"format"`
			Parent uint64 `json:"parent"`
		}
		if err := json.Unmarshal(payload, &head); err != nil {
			return nil, 0, fmt.Errorf("incremental: decoding snapshot chain link %d: %w", seq, err)
		}
		if head.Format != snapshotFormat {
			return nil, 0, fmt.Errorf("%w: snapshot %d has format %d (this build reads %d)", ErrSnapshotFormat, seq, head.Format, snapshotFormat)
		}
		links = append(links, payload)
		if head.Parent == 0 {
			return links, seq, nil
		}
		if head.Parent >= seq {
			return nil, 0, fmt.Errorf("incremental: snapshot %d names parent %d — the chain is corrupt", seq, head.Parent)
		}
		seq = head.Parent
	}
}

// bootstrapJSON is the wire form of a BootstrapState, in the snapshot
// link's slot, edge and counter layout.
type bootstrapJSON struct {
	Slots     []deltaSlotJSON `json:"slots,omitempty"`
	Edges     []edgeDeltaJSON `json:"edges,omitempty"`
	Stats     statsJSON       `json:"stats"`
	Seq       uint64          `json:"seq"`
	MetaDirty bool            `json:"meta_dirty,omitempty"`
}

// EncodeBootstrap serializes a shipped shard state; DecodeBootstrap
// parses it back. The transport frames the bytes without reading them.
func EncodeBootstrap(bs BootstrapState) ([]byte, error) {
	j := bootstrapJSON{
		Slots: make([]deltaSlotJSON, 0, len(bs.Slots)),
		Stats: statsJSON{Inserts: bs.Inserts, Updates: bs.Updates, Deletes: bs.Deletes, Comparisons: bs.Comparisons},
		Seq:   bs.Seq, MetaDirty: bs.MetaDirty,
	}
	for i, sl := range bs.Slots {
		j.Slots = append(j.Slots, deltaSlotJSON{ID: i, Live: sl.Live, URI: sl.URI, Source: sl.Source, Attrs: attrsToJSON(sl.Attrs), Keys: sl.Keys})
	}
	for _, e := range bs.Edges {
		j.Edges = append(j.Edges, edgeDeltaJSON{A: e.A, B: e.B, Present: true})
	}
	payload, err := json.Marshal(&j)
	if err != nil {
		return nil, fmt.Errorf("incremental: encoding bootstrap state: %w", err)
	}
	return payload, nil
}

// DecodeBootstrap parses an EncodeBootstrap payload; Bootstrap validates
// the state itself.
func DecodeBootstrap(payload []byte) (BootstrapState, error) {
	var j bootstrapJSON
	if err := json.Unmarshal(payload, &j); err != nil {
		return BootstrapState{}, fmt.Errorf("incremental: decoding bootstrap state: %w", err)
	}
	bs := BootstrapState{
		Slots:   make([]BootstrapSlot, 0, len(j.Slots)),
		Inserts: j.Stats.Inserts, Updates: j.Stats.Updates, Deletes: j.Stats.Deletes,
		Comparisons: j.Stats.Comparisons,
		Seq:         j.Seq, MetaDirty: j.MetaDirty,
	}
	for i, sl := range j.Slots {
		if sl.ID != i {
			return BootstrapState{}, fmt.Errorf("incremental: bootstrap slot %d listed at position %d", sl.ID, i)
		}
		bs.Slots = append(bs.Slots, BootstrapSlot{Live: sl.Live, URI: sl.URI, Source: sl.Source, Attrs: attrsFromJSON(sl.Attrs), Keys: sl.Keys})
	}
	if err := checkPairs("bootstrap edge", j.Edges, len(j.Slots)); err != nil {
		return BootstrapState{}, err
	}
	for _, e := range j.Edges {
		if !e.Present {
			return BootstrapState{}, fmt.Errorf("incremental: bootstrap lists removed edge (%d,%d)", e.A, e.B)
		}
		bs.Edges = append(bs.Edges, graph.Edge{A: e.A, B: e.B, Weight: 1})
	}
	return bs, nil
}
