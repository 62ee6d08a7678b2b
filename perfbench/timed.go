package main

import (
	"context"

	"entityres/er"
)

// timedResolver is a transparent timing decorator: every call is forwarded
// to the wrapped resolver unchanged, with a span named <layer>.<call>
// around it, parented on the span the call's context carries. It forwards
// the optional PerfReporter and DurableReporter surfaces too, so a server
// or workload sees the same deployment through it.
type timedResolver struct {
	inner er.Resolver
	tr    *tracer
	layer string
}

func (t *timedResolver) span(ctx context.Context, call string) active {
	return t.tr.begin(t.layer+"."+call, parentOf(ctx))
}

func (t *timedResolver) Insert(ctx context.Context, d *er.Description) (er.ID, error) {
	defer t.span(ctx, "insert").end()
	return t.inner.Insert(ctx, d)
}

func (t *timedResolver) Update(ctx context.Context, id er.ID, attrs []er.Attribute) error {
	defer t.span(ctx, "update").end()
	return t.inner.Update(ctx, id, attrs)
}

func (t *timedResolver) Delete(ctx context.Context, id er.ID) error {
	defer t.span(ctx, "delete").end()
	return t.inner.Delete(ctx, id)
}

func (t *timedResolver) ApplyBatch(ctx context.Context, ops []er.StreamOp) error {
	defer t.span(ctx, "apply").end()
	return t.inner.ApplyBatch(ctx, ops)
}

func (t *timedResolver) Query(ctx context.Context, q er.Query) (er.Result, error) {
	defer t.span(ctx, "query").end()
	return t.inner.Query(ctx, q)
}

func (t *timedResolver) Stats() (er.StreamingStats, error) {
	defer t.span(context.Background(), "stats").end()
	return t.inner.Stats()
}

func (t *timedResolver) Flush(ctx context.Context) error {
	defer t.span(ctx, "flush").end()
	return t.inner.Flush(ctx)
}

func (t *timedResolver) Close() error {
	defer t.span(context.Background(), "close").end()
	return t.inner.Close()
}

// Perf forwards er.PerfReporter; every deployment form implements it.
func (t *timedResolver) Perf() er.StreamingPerf {
	if p, ok := t.inner.(er.PerfReporter); ok {
		return p.Perf()
	}
	return er.StreamingPerf{}
}

// Recovery and Abandon forward er.DurableReporter, which the local
// deployment forms implement.
func (t *timedResolver) Recovery() []er.StreamingRecovery {
	if d, ok := t.inner.(er.DurableReporter); ok {
		return d.Recovery()
	}
	return nil
}

func (t *timedResolver) Abandon() {
	if d, ok := t.inner.(er.DurableReporter); ok {
		d.Abandon()
	}
}

var (
	_ er.Resolver        = (*timedResolver)(nil)
	_ er.PerfReporter    = (*timedResolver)(nil)
	_ er.DurableReporter = (*timedResolver)(nil)
)

// instrument wraps r in the decorator when tracing, and returns it as is
// otherwise.
func instrument(r er.Resolver, tr *tracer, layer string) er.Resolver {
	if tr == nil {
		return r
	}
	return &timedResolver{inner: r, tr: tr, layer: layer}
}
