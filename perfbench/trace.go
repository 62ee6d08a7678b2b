package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share their
// root: a child names the span that caused it through Parent (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pass nil through the same code.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a started span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span under parent.
func (t *tracer) begin(name string, parent int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// end records the span and returns it.
func (a active) end() span {
	if a.t == nil {
		return span{}
	}
	s := span{ID: a.id, Parent: a.parent, Name: a.name,
		StartNS: int64(a.start.Sub(a.t.epoch)), EndNS: int64(time.Since(a.t.epoch))}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
	return s
}

// named returns the recorded spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// childTime maps each span ID to the time its direct children cover. The
// children of one span never overlap here (each request's layer calls are
// sequential), so their durations add.
func (t *tracer) childTime() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// write stores the spans and the per-layer metrics derived from them as one
// JSON document.
func (t *tracer) write(path string, metrics []metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Spans   []span   `json:"spans"`
		Metrics []metric `json:"metrics"`
	}{t.spans, metrics}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span parents cross the HTTP boundary in a request header, carried from
// the server's request context into the resolver decorator.
type parentKey struct{}

func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(parentKey{}).(int64)
	return id
}
