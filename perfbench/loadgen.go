package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The open-loop generator: every request has a due time fixed before the
// run starts, and is sent at that time or — when its connection is still
// busy with an earlier one — as soon as the connection frees. Latency is
// measured from the due time, so a stall also counts against the requests
// queued behind it, and lateness (send time minus due time) shows how far
// the generator fell behind.

// spanHeader carries the client-side request span to the server, whose
// middleware hands it to the resolver decorator as the parent span.
const spanHeader = "X-Bench-Span"

// call is one scheduled request.
type call struct {
	at     time.Duration // due time, from the start of the step
	method string
	url    string
	body   []byte
	// write indexes the write plan; -1 for reads.
	write int
}

// sent is what happened to one call.
type sent struct {
	call    *call
	span    int64         // the client span's ID when tracing
	late    time.Duration // send time - due time
	latency time.Duration // completion - due time
	status  int
	err     error
}

// ok reports a 2xx answer; transport errors, timeouts and refusals
// (413/429/503) are failures.
func (s sent) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// refused reports an admission refusal by the server.
func (s sent) refused() bool {
	return s.err == nil && (s.status == http.StatusRequestEntityTooLarge ||
		s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable)
}

// arrivals returns n due times of an open loop of independent arrivals
// over d: a Poisson process conditioned on its count, that is n sorted
// uniform times from the seeded rng. Fixing the count keeps the work of a
// step the same for every seed.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(out)
	return out
}

// newConn returns a client held to one keep-alive connection.
func newConn(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// drive sends calls on one connection in order, none before its due time,
// with a client span named name around each when tracing.
func drive(ctx context.Context, c *http.Client, start time.Time, calls []*call, tr *tracer, name string) []sent {
	out := make([]sent, len(calls))
	for i, cl := range calls {
		due := start.Add(cl.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		at := time.Now()
		sp := tr.begin(name, 0)
		out[i] = sent{call: cl, span: sp.id, late: at.Sub(due)}
		req, err := http.NewRequestWithContext(ctx, cl.method, cl.url, bytes.NewReader(cl.body))
		if err != nil {
			out[i].err = err
			continue
		}
		if tr != nil {
			req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
		}
		resp, err := c.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out[i].status = resp.StatusCode
		}
		out[i].err = err
		out[i].latency = time.Since(due)
		sp.end()
	}
	return out
}

// runConns drives each connection's calls concurrently from one shared
// start and returns every outcome once all connections are done.
func runConns(ctx context.Context, conns []*http.Client, perConn [][]*call, tr *tracer, names []string) []sent {
	start := time.Now().Add(5 * time.Millisecond)
	results := make([][]sent, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = drive(ctx, conns[i], start, perConn[i], tr, names[i])
		}(i)
	}
	wg.Wait()
	var all []sent
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// latencies returns the latency of every call, failures as +Inf: a failed
// or refused request misses any latency limit.
func latencies(ss []sent) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.latency
		if !s.ok() {
			out[i] = time.Duration(math.MaxInt64)
		}
	}
	return out
}
