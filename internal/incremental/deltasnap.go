// The snapshot tracker: the dirt a delta checkpoint serializes.
//
// A full checkpoint — the parentless anchor link (snapshot.go) — costs
// O(collection + weighted graph), which would dominate the write path of a
// long-lived durable resolver whose per-cadence churn is a tiny fraction
// of its state. A delta link instead lists the slots, match-graph edges,
// weighted-graph statistics, cached decisions and kept-baseline entries
// DIRTIED since the last checkpoint, and names its parent. Recovery walks
// the parent chain from the newest snapshot back to its anchor, applies
// the links in order and replays the WAL tail — bit-identical to an anchor
// taken at the same point.
//
// The chain is crash-safe by construction: a snapshot's WAL segments are
// only removed after the snapshot is durable, and snapshots below the
// chain's anchor are the only ones ever deleted (Journal.Checkpoint's
// keepFrom), so every link the newest snapshot names is on disk whenever
// recovery runs. Every DurableOptions.RebaseEvery delta links the resolver
// rebases — writes a new anchor — which bounds both recovery's chain walk
// and the disk the retained links occupy.
//
// Dirt is gathered by a snapTracker the resolver consults at every state
// mutation (nil for in-memory resolvers — the tracking is free unless the
// journal can use it). The weighted graph feeds it through its own change
// feed (metablocking.ChangeSet), everything else through the mark helpers
// below, called at the same sites that mutate the state they shadow.
package incremental

import (
	"entityres/internal/entity"
	"entityres/internal/metablocking"
)

// DefaultRebaseEvery is the delta-chain length at which a checkpoint
// rebases into a new anchor when DurableOptions.RebaseEvery is zero.
const DefaultRebaseEvery = 4

// snapTracker accumulates the state dirtied since the last checkpoint — the
// exact contents of the next delta link. Only durable resolvers carry
// one (OpenResolver creates it); every mark helper is a no-op without it.
type snapTracker struct {
	// slots are the collection slots whose content, liveness or blocking
	// keys changed (new slots included).
	slots map[entity.ID]struct{}
	// pairs are the match-graph edges whose presence may have changed.
	pairs map[entity.Pair]struct{}
	// cache are the decision-cache entries set or invalidated.
	cache map[entity.Pair]struct{}
	// kept are the kept-baseline entries re-fated by a reconcile.
	kept map[entity.Pair]struct{}
	// wg is the weighted graph's change feed (nil without meta-blocking).
	wg *metablocking.ChangeSet
	// full forces the next checkpoint to be an anchor: set when the
	// tracker's dirt no longer covers the divergence from the parent
	// snapshot (a bootstrap's wholesale state load, or a checkpoint that
	// drained the tracker and then failed to persist).
	full bool
}

func newSnapTracker() *snapTracker {
	return &snapTracker{
		slots: make(map[entity.ID]struct{}),
		pairs: make(map[entity.Pair]struct{}),
		cache: make(map[entity.Pair]struct{}),
		kept:  make(map[entity.Pair]struct{}),
	}
}

// reset clears the slot/pair/cache/kept dirt after it was rendered into a
// link (the weighted-graph feed drains through DeltaSince or Reset).
func (t *snapTracker) reset() {
	t.slots = make(map[entity.ID]struct{})
	t.pairs = make(map[entity.Pair]struct{})
	t.cache = make(map[entity.Pair]struct{})
	t.kept = make(map[entity.Pair]struct{})
}

// markSlot records that slot id's content, liveness or keys changed.
// Callers hold r.mu.
func (r *Resolver) markSlot(id entity.ID) {
	if r.snapTrack != nil {
		r.snapTrack.slots[id] = struct{}{}
	}
}

// markMatchEdge records that the match edge {a, b} may have appeared or
// disappeared. Callers hold r.mu.
func (r *Resolver) markMatchEdge(a, b entity.ID) {
	if r.snapTrack != nil {
		r.snapTrack.pairs[entity.NewPair(a, b)] = struct{}{}
	}
}

// markCachePair records that the decision-cache entry for p was set or
// dropped. Callers hold r.mu.
func (r *Resolver) markCachePair(p entity.Pair) {
	if r.snapTrack != nil {
		r.snapTrack.cache[p] = struct{}{}
	}
}

// markKeptPair records that p's kept-baseline entry was re-fated. Callers
// hold r.mu.
func (r *Resolver) markKeptPair(p entity.Pair) {
	if r.snapTrack != nil {
		r.snapTrack.kept[p] = struct{}{}
	}
}
