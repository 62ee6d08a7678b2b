// Package core implements the paper's central artifact: the ER framework
// of Fig. 1. A Pipeline wires the framework's phases — Blocking, block
// cleaning and Meta-blocking (the planning of comparisons), Scheduling,
// Matching, and the optional Update/iteration feeding results back — with
// pluggable implementations from the substrate packages, and runs them in
// one of the execution modes the tutorial organizes: batch, merging-based
// iterative (Swoosh), iterative blocking, relationship-based collective,
// budget-bounded progressive, and streaming (incremental resolution of
// arriving descriptions, package incremental).
package core

import (
	"context"
	"fmt"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/incremental"
	"entityres/internal/iterative"
	"entityres/internal/iterblock"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/progressive"
	"entityres/internal/sharded"
)

// Mode selects the execution strategy of the matching/update phases.
type Mode int

const (
	// Batch resolves every blocked comparison once, in block order.
	Batch Mode = iota
	// MergingIterative runs R-Swoosh over the collection: matches merge
	// and merged profiles re-enter resolution (blocking is still applied
	// first to report stats, but resolution is exhaustive over profiles,
	// per the Swoosh model).
	MergingIterative
	// IterativeBlocks runs iterative blocking: block-at-a-time resolution
	// with merge propagation across blocks until fixpoint.
	IterativeBlocks
	// Collective runs relationship-based iterative resolution over the
	// blocked candidates.
	Collective
	// Progressive resolves blocked candidates under a comparison budget
	// using a pluggable scheduler.
	Progressive
	// Streaming replays the collection through the incremental resolver
	// (package incremental): every description is inserted one at a time
	// and resolved against only the blocks its keys touch. On a static
	// collection the result is identical to Batch — same matches, same
	// comparison count — which is exactly the differential contract that
	// lets the same configuration serve live insert/update/delete traffic
	// through core.Pipeline.Streaming.
	Streaming
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Batch:
		return "batch"
	case MergingIterative:
		return "merging-iterative"
	case IterativeBlocks:
		return "iterative-blocking"
	case Collective:
		return "collective"
	case Progressive:
		return "progressive"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SchedulerFactory builds the progressive scheduler once the blocking
// collection is known.
type SchedulerFactory func(c *entity.Collection, bs *blocking.Blocks) progressive.Scheduler

// Pipeline is the configurable ER framework.
type Pipeline struct {
	// Blocker is the blocking phase (required).
	Blocker blocking.Blocker
	// Processors clean the blocking collection (purging, filtering, ...)
	// in order.
	Processors []blockproc.Processor
	// Meta optionally restructures the collection through the weighted
	// blocking graph.
	Meta *metablocking.MetaBlocker
	// Matcher is the matching phase (required for every mode except
	// Collective, which carries its own similarity).
	Matcher *matching.Matcher
	// Mode selects the execution strategy (default Batch).
	Mode Mode
	// Scheduler builds the progressive schedule (Progressive mode;
	// defaults to the static block order).
	Scheduler SchedulerFactory
	// Budget caps comparisons in Progressive mode (0 = unlimited).
	Budget int64
	// CollectiveConfig configures Collective mode (nil = defaults with
	// the Matcher's similarity and threshold).
	CollectiveConfig *iterative.Collective
	// GroundTruth, when provided, annotates the progressive recall curve;
	// it never influences resolution.
	GroundTruth *entity.Matches
	// StreamDir, in Streaming mode, makes the resolver durable: every
	// operation is journaled to a write-ahead log in this directory and
	// periodically compacted into snapshots, and an existing directory is
	// crash-recovered (snapshot restore plus tail replay) before the
	// collection streams in — see incremental.OpenResolver. Empty means
	// in-memory streaming. Replaying a collection into a directory that
	// already holds its descriptions fails on the duplicate URIs; persistent
	// pipelines are for fresh directories or resumed streams whose
	// collections carry only the new arrivals.
	StreamDir string
	// StreamDurable tunes the StreamDir journal (segment size, snapshot
	// cadence, fsync policy).
	StreamDurable incremental.DurableOptions
	// StreamShards, in Streaming mode, replays the collection through the
	// sharded streaming resolver (package sharded) with this many key-hash
	// shards instead of the single-node resolver: each shard owns a slice
	// of the blocking-key space and the coordinator merges their match
	// edges, with results bit-exact for every shard count. 0 or 1 keeps the
	// single-node resolver. With StreamDir set, each shard journals to its
	// own WAL directory shard-%03d under StreamDir (group-commit fsync
	// batching).
	StreamShards int
}

// PhaseStat records one framework phase execution.
type PhaseStat struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Matches is the pairwise match output.
	Matches *entity.Matches
	// Comparisons counts matcher invocations.
	Comparisons int64
	// Blocks is the final blocking collection that fed matching.
	Blocks *blocking.Blocks
	// Curve is the progressive recall curve (Progressive mode with
	// GroundTruth set).
	Curve evaluation.Curve
	// Phases records per-phase wall time in execution order.
	Phases []PhaseStat
}

// Clusters returns the resolved entities as ID clusters (connected
// components of the match output).
func (r *Result) Clusters() [][]entity.ID { return r.Matches.Clusters() }

// Validate checks that the configuration is runnable. Both the sequential
// runner and the concurrent engine (package pipeline) call it, so the two
// cannot drift apart on what counts as a valid configuration.
func (p *Pipeline) Validate() error {
	if p.Blocker == nil {
		return fmt.Errorf("core: pipeline requires a Blocker")
	}
	if p.Matcher == nil && p.Mode != Collective {
		return fmt.Errorf("core: pipeline requires a Matcher in %s mode", p.Mode)
	}
	if p.Mode == Collective && p.CollectiveConfig == nil && p.Matcher == nil {
		return fmt.Errorf("core: collective mode requires CollectiveConfig or Matcher")
	}
	if p.StreamDir != "" && p.Mode != Streaming {
		return fmt.Errorf("core: StreamDir (durable streaming) requires %s mode, got %s", Streaming, p.Mode)
	}
	if p.StreamDurable != (incremental.DurableOptions{}) && p.StreamDir == "" {
		return fmt.Errorf("core: StreamDurable tunes the StreamDir journal and requires StreamDir to be set")
	}
	if p.StreamShards < 0 {
		return fmt.Errorf("core: StreamShards must be >= 0, got %d", p.StreamShards)
	}
	if p.StreamShards > 1 && p.Mode != Streaming {
		return fmt.Errorf("core: StreamShards (sharded streaming) requires %s mode, got %s", Streaming, p.Mode)
	}
	if p.Mode == Streaming {
		if _, ok := p.Blocker.(blocking.StreamableBlocker); !ok {
			return fmt.Errorf("core: streaming mode requires a collection-independent blocker (blocking.StreamableBlocker), got %q", p.Blocker.Name())
		}
		if len(p.Processors) > 0 {
			return fmt.Errorf("core: streaming mode does not support block cleaning (collection-global)")
		}
		if p.Meta != nil {
			// Meta-blocking streams for the stream-safe subset — WEP/WNP
			// pruning of CBS/ECBS/JS weights, maintained incrementally by
			// the resolver; the rest is rejected with a specific reason.
			if err := p.Meta.ValidateStreaming(); err != nil {
				return fmt.Errorf("core: streaming mode: %w", err)
			}
		}
	}
	return nil
}

// StreamResolver is the method set the single-node and the sharded
// streaming resolvers share — all a streaming-mode replay needs.
type StreamResolver interface {
	Insert(ctx context.Context, d *entity.Description) (entity.ID, error)
	Flush(ctx context.Context) error
	RestructuredBlocks() (*blocking.Blocks, error)
	Blocks() *blocking.Blocks
	Matches() (*entity.Matches, error)
	Stats() (incremental.Stats, error)
	Close() error
}

// StreamingSetup builds the streaming resolver for a Streaming-mode
// pipeline over a collection of the given kind: the sharded resolver when
// StreamShards > 1, the single-node one otherwise; durable (crash-recovered
// from StreamDir) when the pipeline sets one, in-memory otherwise. Shared
// by the sequential runner and the concurrent engine so both construct
// identical resolvers (the engine passes its worker count; the match output
// is worker-independent).
func (p *Pipeline) StreamingSetup(kind entity.Kind, workers int) (StreamResolver, error) {
	sb, ok := p.Blocker.(blocking.StreamableBlocker)
	if !ok {
		return nil, fmt.Errorf("core: streaming mode requires a blocking.StreamableBlocker")
	}
	if p.StreamShards > 1 {
		cfg := sharded.Config{
			Kind: kind, Blocker: sb, Matcher: p.Matcher, Workers: workers,
			Meta: p.Meta, Shards: p.StreamShards, Durable: p.StreamDurable,
		}
		if p.StreamDir != "" {
			return nonNil(sharded.Open(p.StreamDir, cfg))
		}
		return nonNil(sharded.New(cfg))
	}
	cfg := incremental.Config{
		Kind: kind, Blocker: sb, Matcher: p.Matcher, Workers: workers,
		Meta: p.Meta, Durable: p.StreamDurable,
	}
	if p.StreamDir != "" {
		return nonNil(incremental.OpenResolver(p.StreamDir, cfg))
	}
	return nonNil(incremental.New(cfg))
}

// nonNil keeps a failed constructor's nil pointer out of the interface.
func nonNil[R StreamResolver](r R, err error) (StreamResolver, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ReplayStreaming replays c through a fresh streaming resolver built from
// the pipeline configuration (see StreamingSetup) and shapes the outcome
// as a batch result (matches, comparison count, block collection). It is
// the single streaming-mode execution path, shared by the sequential
// runner (one worker, background context) and the concurrent engine (its
// worker pool and cancellable context) so the two cannot drift apart. The
// results are bit-exact for every StreamShards value.
func (p *Pipeline) ReplayStreaming(ctx context.Context, res *Result, c *entity.Collection, workers int) error {
	r, err := p.StreamingSetup(c.Kind(), workers)
	if err != nil {
		return err
	}
	// Close releases a durable resolver's journal once the results are
	// extracted (Close is idempotent and a cheap no-op for in-memory runs);
	// the deferred call covers the error paths.
	defer r.Close()
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			return err
		}
	}
	if p.Meta != nil {
		// Settle the deferred weighting/pruning under the caller's context,
		// and report the pruned pair blocks — the collection batch
		// meta-blocking would hand its matcher.
		if err := r.Flush(ctx); err != nil {
			return err
		}
		blocks, err := r.RestructuredBlocks()
		if err != nil {
			return err
		}
		res.Blocks = blocks
	} else {
		res.Blocks = r.Blocks()
	}
	matches, err := r.Matches()
	if err != nil {
		return err
	}
	res.Matches = matches
	st, err := r.Stats()
	if err != nil {
		return err
	}
	res.Comparisons = st.Comparisons
	return r.Close()
}

// CollectiveSetup returns the collective-mode configuration with the
// default (the Matcher's similarity and threshold) applied.
func (p *Pipeline) CollectiveSetup() *iterative.Collective {
	if p.CollectiveConfig != nil {
		return p.CollectiveConfig
	}
	return &iterative.Collective{Base: p.Matcher.Sim, Threshold: p.Matcher.Threshold}
}

// ProgressiveSetup returns the progressive-mode scheduler factory,
// effective budget and ground truth with defaults applied: static block
// order, unlimited budget, empty ground truth. Shared with the concurrent
// engine so both runners execute the same effective configuration.
func (p *Pipeline) ProgressiveSetup() (SchedulerFactory, int64, *entity.Matches) {
	factory := p.Scheduler
	if factory == nil {
		factory = func(_ *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
			return progressive.NewStaticOrder(bs)
		}
	}
	budget := p.Budget
	if budget <= 0 {
		budget = 1 << 62
	}
	gt := p.GroundTruth
	if gt == nil {
		gt = entity.NewMatches()
	}
	return factory, budget, gt
}

// Run executes the pipeline over the collection.
func (p *Pipeline) Run(c *entity.Collection) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	phase := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		res.Phases = append(res.Phases, PhaseStat{Name: name, Duration: time.Since(t0)})
		return err
	}

	// Streaming mode owns its whole phase sequence: the incremental
	// resolver blocks, schedules and matches each arriving description in
	// one pass, so the batch blocking/planning phases below never run.
	if p.Mode == Streaming {
		if err := phase("streaming", func() error {
			return p.ReplayStreaming(context.Background(), res, c, 1)
		}); err != nil {
			return nil, fmt.Errorf("core: streaming: %w", err)
		}
		return res, nil
	}

	// Blocking phase.
	var bs *blocking.Blocks
	if err := phase("blocking", func() error {
		var err error
		bs, err = p.Blocker.Block(c)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: blocking: %w", err)
	}

	// Planning phase: block cleaning + meta-blocking.
	if len(p.Processors) > 0 {
		_ = phase("block-cleaning", func() error {
			bs = blockproc.Chain(p.Processors).Process(bs)
			return nil
		})
	}
	if p.Meta != nil {
		_ = phase("meta-blocking", func() error {
			bs = p.Meta.Restructure(c, bs)
			return nil
		})
	}
	res.Blocks = bs

	// Scheduling + matching + update phases, by mode.
	err := phase(p.Mode.String(), func() error {
		switch p.Mode {
		case Batch:
			out := matching.ResolveBlocks(c, bs, p.Matcher)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case MergingIterative:
			out := iterative.RSwoosh(c, p.Matcher)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case IterativeBlocks:
			out := iterblock.Resolve(c, bs, p.Matcher)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case Collective:
			out := p.CollectiveSetup().Resolve(c, bs.DistinctPairs().Pairs())
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case Progressive:
			factory, budget, gt := p.ProgressiveSetup()
			out := progressive.Run(c, factory(c, bs), p.Matcher, gt, budget)
			res.Matches, res.Comparisons, res.Curve = out.Matches, out.Comparisons, out.Curve
		default:
			return fmt.Errorf("core: unknown mode %v", p.Mode)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
