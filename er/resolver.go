package er

import (
	"context"
	"fmt"

	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// This file is the resolver API: one Open call returning one Resolver
// interface, with durability, sharding and networking selected by Config
// instead of by constructor.

// Config selects and parameterizes a resolver deployment for Open.
//
// The zero-value axes compose: leave everything optional unset for an
// in-memory single-node resolver; set Dir for durability; set Shards for
// in-process sharding; set Addrs to drive remote shard servers over the
// wire. Durability and sharding combine freely; Addrs subsumes Shards.
type Config struct {
	// Kind is the collection kind (Dirty or CleanClean).
	Kind Kind
	// Blocker derives blocking keys per description (required).
	Blocker StreamableBlocker
	// Matcher decides candidate pairs (required).
	Matcher *Matcher
	// Workers bounds delta-matching concurrency (0 = sequential).
	Workers int
	// Meta enables live meta-blocking (WEP/WNP over CBS/ECBS/JS).
	Meta *MetaBlocker

	// Dir makes the deployment durable: single-node and in-process sharded
	// resolvers journal under it, and the networked coordinator keeps its
	// own journal there. Empty means fully in-memory.
	Dir string
	// Durable tunes the write-ahead log when Dir is set.
	Durable StreamingDurable

	// Shards > 1 partitions the blocking-key space across in-process shard
	// resolvers.
	Shards int

	// Addrs selects the networked deployment: one shard server address per
	// shard (see NewShardServer / the erctl shard command). Shards, when
	// set, must agree with len(Addrs).
	Addrs []string
	// Transport tunes the shard connections (timeouts, retry attempts).
	Transport TransportOptions

	// Sources are input files — N-Triples, CSV or JSON-lines — preloaded
	// into the deployment before Open returns, in order, each tagged with
	// its source index. On a durable deployment that already applied
	// operations, already-loaded leading records are skipped rather than
	// re-inserted (the sources are the operation-stream prefix).
	Sources []Source
}

// sharded renders the config in the internal deployment form shared by the
// in-process and networked coordinators.
func (cfg Config) sharded() sharded.Config {
	return sharded.Config{
		Kind: cfg.Kind, Blocker: cfg.Blocker, Matcher: cfg.Matcher,
		Workers: cfg.Workers, Meta: cfg.Meta, Shards: cfg.Shards,
		Durable: cfg.Durable,
	}
}

// Query selects a description — by URI, or by handle when URI is empty —
// and what to resolve about it.
type Query struct {
	// URI addresses the description by its identifier.
	URI string
	// ID addresses it by resolver handle when URI is empty.
	ID ID
	// Cluster additionally materializes the full entity cluster.
	Cluster bool
}

// Result answers a Query.
type Result struct {
	// ID is the resolver handle of the selected description.
	ID ID
	// Description is a copy of its current state.
	Description *Description
	// SameAs lists the handles currently matched to it, ascending.
	SameAs []ID
	// Cluster lists its full entity cluster (itself included) when the
	// query asked for it; nil otherwise.
	Cluster []ID
}

// ErrBroken marks a resolver whose journal has diverged from its in-memory
// state: a WAL append failed mid-operation and the rollback could not
// restore the pre-operation picture. Every subsequent mutation AND every
// reconciling read (Stats, Flush, Query under meta-blocking) fails with an
// error wrapping it — match with errors.Is(err, er.ErrBroken). The journal
// itself is still the durable truth: reopening the directory recovers the
// last consistent state.
var ErrBroken = incremental.ErrBroken

// ErrSnapshotFormat marks a durable directory whose snapshots were written
// in a layout this build does not read: Open refuses it rather than start
// empty — match with errors.Is(err, er.ErrSnapshotFormat).
var ErrSnapshotFormat = incremental.ErrSnapshotFormat

// ErrNotFound reports a Query that selected no live description.
type ErrNotFound struct {
	URI string
	ID  ID
}

func (e *ErrNotFound) Error() string {
	if e.URI != "" {
		return fmt.Sprintf("er: no live description with URI %q", e.URI)
	}
	return fmt.Sprintf("er: no live description with handle %d", e.ID)
}

// Resolver is the v2 entity-resolution surface: a live store of entity
// descriptions that maintains blocks, matches and clusters under
// insert/update/delete traffic. All deployment forms returned by Open —
// single-node, durable, sharded, networked — satisfy it with bit-identical
// observable behavior.
type Resolver interface {
	// Insert adds a new description and returns its handle.
	Insert(ctx context.Context, d *Description) (ID, error)
	// Update replaces a live description's attributes.
	Update(ctx context.Context, id ID, attrs []Attribute) error
	// Delete removes a live description.
	Delete(ctx context.Context, id ID) error
	// ApplyBatch accepts a batch of URI-addressed operations as one
	// sequential unit: validated up front against the state the batch
	// itself builds (a batch may insert a description and then update or
	// delete it), rejected whole on any invalid record, and — on the
	// durable forms — journaled as ONE append that replays atomically
	// after a crash. The resulting state is bit-identical to applying the
	// operations one by one; what changes is the cost: one lock
	// acquisition, one journal append, one shard fan-out and (networked)
	// one wire round trip per shard for the whole batch.
	ApplyBatch(ctx context.Context, ops []StreamOp) error
	// Query resolves one description: current state, match partners and
	// optionally its full cluster. Returns *ErrNotFound when nothing live
	// answers the selection.
	Query(ctx context.Context, q Query) (Result, error)
	// Stats reports operation counters and current blocking/matching sizes,
	// reconciling deferred meta-blocking work first. A resolver whose
	// journal has diverged fails with an error wrapping ErrBroken.
	Stats() (StreamingStats, error)
	// Flush settles any deferred (meta-blocking) work.
	Flush(ctx context.Context) error
	// Close releases the deployment (seals journals, drops connections).
	Close() error
}

// ShardRejoiner is implemented by the networked Resolver: after a shard
// server restarts, RejoinShard reconnects it and closes whatever gap its
// absence left (journal catch-up or snapshot shipping over the wire).
type ShardRejoiner interface {
	RejoinShard(ctx context.Context, shard int) error
	// TransportStats reports routed-delivery counters and down shards.
	TransportStats() TransportStats
}

// DurableReporter is implemented by the local deployment forms (no Addrs):
// Recovery reports what each journal's open restored — one entry per
// shard, one for single-node — and Abandon hard-stops without sealing the
// journal, simulating a crash for tests and benchmarks.
type DurableReporter interface {
	Recovery() []StreamingRecovery
	Abandon()
}

// PerfReporter is implemented by every deployment form: Perf reports the
// cumulative machine-independent work counters without reconciling or
// otherwise mutating state — summed over shards for the in-process sharded
// form; coordinator-process counters only (replica plus fan-out/round-trip
// tallies, not the remote shards' journals) for the networked form.
type PerfReporter interface {
	Perf() StreamingPerf
}

// Networked transport surface.
type (
	// TransportOptions tunes shard connections (Config.Transport).
	TransportOptions = transport.ClientOptions
	// TransportStats are routed-delivery counters (ShardRejoiner).
	TransportStats = transport.TransportStats
	// ShardServer serves one shard's resolver over the wire protocol.
	ShardServer = transport.ShardServer
	// ShardUnavailableError reports shards unreachable during a mutation;
	// the operation itself was accepted and completes on rejoin.
	ShardUnavailableError = transport.ShardUnavailableError
)

// NewShardServer opens shard index of the deployment described by cfg —
// durable under dir, in-memory when dir is empty — ready to Serve the wire
// protocol a networked Open drives. cfg must carry the same Kind, Blocker,
// Matcher, Meta and Shards on every shard and every coordinator of one
// deployment.
func NewShardServer(dir string, cfg Config, index int) (*ShardServer, error) {
	scfg := cfg.sharded()
	if scfg.Shards == 0 {
		scfg.Shards = len(cfg.Addrs)
	}
	return transport.NewShardServer(dir, scfg, index)
}

// Open validates cfg and connects the selected deployment:
//
//   - no Addrs, Shards <= 1: a single-node streaming resolver, durable
//     under Dir when set;
//   - no Addrs, Shards > 1: the in-process sharded resolver;
//   - Addrs set: the networked coordinator, one shard server per address,
//     with Dir as the coordinator's own journal directory.
//
// The returned Resolver is bit-exact across these forms for the same
// operation stream; pick by operational need, not by semantics.
func Open(ctx context.Context, cfg Config) (Resolver, error) {
	var r Resolver
	switch {
	case len(cfg.Addrs) > 0:
		co, err := transport.OpenCoordinator(ctx, cfg.Dir, cfg.sharded(), cfg.Addrs, cfg.Transport)
		if err != nil {
			return nil, err
		}
		r = networkedResolver{resolver{co}, co}
	case cfg.Shards > 1:
		var sh *sharded.Resolver
		var err error
		if cfg.Dir != "" {
			sh, err = sharded.Open(cfg.Dir, cfg.sharded())
		} else {
			sh, err = sharded.New(cfg.sharded())
		}
		if err != nil {
			return nil, err
		}
		r = localResolver{resolver{sh}, sh}
	default:
		icfg := incremental.Config{
			Kind: cfg.Kind, Blocker: cfg.Blocker, Matcher: cfg.Matcher,
			Workers: cfg.Workers, Meta: cfg.Meta, Durable: cfg.Durable,
		}
		var sr *incremental.Resolver
		var err error
		if cfg.Dir != "" {
			sr, err = incremental.OpenResolver(cfg.Dir, icfg)
		} else {
			sr, err = incremental.New(icfg)
		}
		if err != nil {
			return nil, err
		}
		r = localResolver{resolver{sr}, singleReporter{sr}}
	}
	if len(cfg.Sources) > 0 {
		if err := preloadSources(ctx, r, cfg.Sources); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// queryBackend is the read surface every deployment form shares. The
// reconciling reads (MatchedWith, Clusters) return the reconcile's error —
// a poisoned journal surfaces as ErrBroken instead of a panic.
type queryBackend interface {
	Lookup(uri string) (ID, bool)
	Get(id ID) (*Description, bool)
	MatchedWith(id ID) ([]ID, error)
	Clusters() ([][]ID, error)
}

// runQuery answers q against any backend.
func runQuery(b queryBackend, q Query) (Result, error) {
	var id ID
	if q.URI != "" {
		var ok bool
		if id, ok = b.Lookup(q.URI); !ok {
			return Result{}, &ErrNotFound{URI: q.URI}
		}
	} else {
		id = q.ID
	}
	d, ok := b.Get(id)
	if !ok {
		return Result{}, &ErrNotFound{URI: q.URI, ID: id}
	}
	sameAs, err := b.MatchedWith(id)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: id, Description: d, SameAs: sameAs}
	if q.Cluster {
		clusters, err := b.Clusters()
		if err != nil {
			return Result{}, err
		}
		res.Cluster = clusterOf(clusters, id)
	}
	return res, nil
}

// batchRecords renders URI-addressed stream operations in the internal
// batch-record form all deployment forms plan against. Updates and deletes
// set ID to -1 explicitly: the zero value would address handle 0.
func batchRecords(ops []StreamOp) []incremental.Record {
	recs := make([]incremental.Record, len(ops))
	for i, op := range ops {
		recs[i] = incremental.Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	}
	return recs
}

// clusterOf finds id's cluster; a description matched to nothing forms a
// singleton.
func clusterOf(clusters [][]ID, id ID) []ID {
	for _, c := range clusters {
		for _, m := range c {
			if m == id {
				return c
			}
		}
	}
	return []ID{id}
}

// backend is the method set every deployment form shares: the
// single-node resolver, the in-process sharded resolver and the networked
// coordinator.
type backend interface {
	queryBackend
	Insert(ctx context.Context, d *Description) (ID, error)
	Update(ctx context.Context, id ID, attrs []Attribute) error
	Delete(ctx context.Context, id ID) error
	ApplyBatch(ctx context.Context, recs []incremental.Record) error
	Stats() (StreamingStats, error)
	Flush(ctx context.Context) error
	Close() error
	Perf() StreamingPerf
}

// resolver adapts any backend to Resolver and PerfReporter.
type resolver struct{ backend }

func (r resolver) ApplyBatch(ctx context.Context, ops []StreamOp) error {
	return r.backend.ApplyBatch(ctx, batchRecords(ops))
}

func (r resolver) Query(ctx context.Context, q Query) (Result, error) {
	return runQuery(r.backend, q)
}

// localResolver is a local deployment form: it adds DurableReporter.
type localResolver struct {
	resolver
	DurableReporter
}

// networkedResolver is the networked form: it adds ShardRejoiner.
type networkedResolver struct {
	resolver
	ShardRejoiner
}

// singleReporter renders the single-node resolver's one recovery report
// in DurableReporter's per-journal form.
type singleReporter struct{ *incremental.Resolver }

func (s singleReporter) Recovery() []StreamingRecovery {
	return []StreamingRecovery{s.Resolver.Recovery()}
}

// compile-time conformance
var (
	_ backend         = (*incremental.Resolver)(nil)
	_ backend         = (*sharded.Resolver)(nil)
	_ backend         = (*transport.Coordinator)(nil)
	_ PerfReporter    = resolver{}
	_ ShardRejoiner   = (*transport.Coordinator)(nil)
	_ DurableReporter = (*sharded.Resolver)(nil)
	_ DurableReporter = singleReporter{}
)
