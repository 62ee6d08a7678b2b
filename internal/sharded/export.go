// The key-partition contract, exported: the networked deployment
// (internal/transport) must agree with the in-process coordinator on
// every detail of the partition — which shard owns a blocking key, which
// shard owns a candidate pair, and exactly how a shard-local resolver is
// configured — or the two deployment forms would resolve differently.
// These helpers are that agreement, published from the package that
// defines it so it exists in exactly one place.
package sharded

import (
	"context"

	"entityres/internal/entity"
	"entityres/internal/incremental"
)

// KeyOwner maps a blocking key to its owning shard: FNV-1a over the key
// bytes, mod the shard count. Deterministic across processes, machines and
// runs — the key→shard directory a networked coordinator routes operations
// with is exactly this function over the operation's key set.
func KeyOwner(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return keyOwner(key, shards)
}

// FirstSharedKey returns the smallest key present in both ascending
// distinct key slices, and whether one exists. The shard owning that key
// owns the pair: it is where the single-node resolver's seen-set dedup
// counts the pair, so exactly one shard evaluates it and the per-shard
// comparison counters sum to the single-node count bit for bit.
func FirstSharedKey(a, b []string) (string, bool) { return firstShared(a, b) }

// NodeConfig renders shard i's incremental.Config — the configuration a
// standalone shard process (transport.ShardServer) opens its resolver
// with. It is byte-for-byte the configuration the in-process coordinator
// builds for its shard i: the raw blocker wrapped in the owned-key lens,
// the first-shared-key delta filter, the same durability options — so a
// shard journal written by either deployment form recovers under the other.
func (cfg Config) NodeConfig(i int) incremental.Config {
	c, _ := cfg.shardConfig(i)
	return c
}

// MatchedWith returns the handles currently matched to id — its direct
// neighbors in the global match graph, ascending — reconciling any
// deferred meta-blocking work first. Nil when id is not live or matches
// nothing. This is the read behind the serving layer's same-as query.
func (r *Resolver) MatchedWith(id entity.ID) ([]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	if !r.isLive(id) {
		return nil, nil
	}
	return r.dyn.Graph().Neighbors(id), nil
}
