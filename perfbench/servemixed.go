package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"entityres/er"
	"entityres/internal/serve"
)

// serve-mixed: an in-memory single-node resolver behind serve.NewServer on
// a loopback listener. An open loop of point reads (lookup, same-as,
// cluster) runs on nproc-1 connections while singleton POST /v1/ops
// writes arrive on one more, at a fixed rate. Each write holds the
// resolver's write lock for its frontier matching, so the read tail is
// lock wait behind writes; serve and incremental do the work, wal and
// sharded none. The offered read rate climbs a short ladder. README.md
// gives the measurements the rates below are derived from.
const (
	serveEntities = 2000 // ~3k records
	servePreload  = 0.7  // share of each source preloaded through Sources
	serveSetups   = 3    // set-up repetitions; setup_s is their median
	// serveWriteRate is the write rate of every ladder step, per second,
	// chosen so writes hold the write lock a tenth of the time: 0.1 ÷ the
	// measured mean apply time of 4.1 ms. Traced runs report the share
	// as incremental.apply_busy_share.
	serveWriteRate = 24
	// serveNominal indexes the ladder step the latency figures report.
	serveNominal = 1
	// serveReadLimit is the read p99 a ladder step must meet to count
	// toward max_rate_rps: the 100 ms a response may take and still feel
	// instantaneous, a common interactive latency budget.
	serveReadLimit = 100 * time.Millisecond
	serveTimeout   = 2 * time.Second
	// serveUpdateEvery makes every n-th write an update of a preloaded
	// description; the others insert the descriptions not preloaded. One
	// update to three inserts is an assumption, not a measured mix.
	serveUpdateEvery = 4
)

// serveLadder is the offered read rate of each step, per second: about
// 1/5, 2/5, 4/5 and 8/5 of what one read connection serves at the
// measured mean read service time of 0.85 ms, so the nominal step is
// lightly loaded, the third near saturation and the fourth past it.
var serveLadder = []int{250, 500, 1000, 2000}

func serveConfig(srcs []er.Source, workers int) er.Config {
	return er.Config{
		Kind:    er.CleanClean,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers: workers,
		Sources: srcs,
	}
}

// openAnswering opens the deployment and waits until it answers a query,
// returning the time that took.
func openAnswering(ctx context.Context, cfg er.Config, probe string) (er.Resolver, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := er.Open(ctx, cfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := r.Query(ctx, er.Query{URI: probe}); err != nil {
		r.Close()
		return nil, 0, fmt.Errorf("first query: %w", err)
	}
	return r, time.Since(t0), nil
}

// startServer serves r on a loopback listener; stop shuts it down and
// waits for it.
func startServer(r er.Resolver, tr *tracer) (base string, stop func(context.Context) error, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	handler := serve.NewServer(r, serve.Options{}).Handler()
	if tr != nil {
		handler = parentMiddleware(handler)
	}
	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	stop = func(ctx context.Context) error {
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return "http://" + lis.Addr().String(), stop, nil
}

// parentMiddleware hands the client's request span to the resolver
// decorator through the request context.
func parentMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			r = r.WithContext(withParent(r.Context(), id))
		}
		next.ServeHTTP(w, r)
	})
}

// writePlan is the write stream: inserts of the descriptions that were not
// preloaded, with every serveUpdateEvery-th op an update of a distinct
// preloaded description (its last attribute dropped), in a seeded order.
func writePlan(rng *rand.Rand, cp *corpus, rest []er.StreamOp) []er.StreamOp {
	inserts := append([]er.StreamOp(nil), rest...)
	rng.Shuffle(len(inserts), func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
	var targets []er.StreamOp
	for s, recs := range cp.sources {
		for _, rec := range recs[:int(float64(len(recs))*servePreload)] {
			if len(rec.Attrs) >= 2 {
				targets = append(targets, er.StreamOp{Kind: er.StreamUpdate, URI: rec.URI, Source: s, Attrs: rec.Attrs[:len(rec.Attrs)-1]})
			}
		}
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	var plan []er.StreamOp
	for len(inserts) > 0 && len(targets) > 0 {
		if (len(plan)+1)%serveUpdateEvery == 0 {
			plan, targets = append(plan, targets[0]), targets[1:]
		} else {
			plan, inserts = append(plan, inserts[0]), inserts[1:]
		}
	}
	return plan
}

// opsBody renders one operation as a POST /v1/ops request body.
func opsBody(op er.StreamOp) ([]byte, error) {
	kind := map[er.StreamOpKind]string{er.StreamInsert: "insert", er.StreamUpdate: "update", er.StreamDelete: "delete"}[op.Kind]
	j := serve.OpJSON{Op: kind, URI: op.URI, Source: op.Source}
	for _, a := range op.Attrs {
		j.Attrs = append(j.Attrs, serve.AttrJSON{Name: a.Name, Value: a.Value})
	}
	return json.Marshal(serve.OpsRequestJSON{Ops: []serve.OpJSON{j}})
}

// stepResult is one ladder step's outcome.
type stepResult struct {
	rate          int
	reads, writes []sent
	wall          time.Duration
}

func (s stepResult) readP99() time.Duration { return quantile(latencies(s.reads), 0.99) }

// mean returns the mean latency of ss from the due time, and the mean
// service time from the send time, over the ones that succeeded; failures
// are counted in failed_frac.
func mean(ss []sent) (latency, service time.Duration) {
	n := 0
	for _, s := range ss {
		if s.ok() {
			latency += s.latency
			service += s.latency - s.late
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return latency / time.Duration(n), service / time.Duration(n)
}

func (s stepResult) String() string {
	rl, rs := mean(s.reads)
	wl, ws := mean(s.writes)
	return fmt.Sprintf("%d reads/s, %d reads: mean %.3f ms (service %.3f ms), p50 %.3f ms, p99 %.3f ms; %d writes: mean %.3f ms (service %.3f ms); wall %.3f s",
		s.rate, len(s.reads), ms(rl), ms(rs), ms(quantile(latencies(s.reads), 0.5)), ms(s.readP99()),
		len(s.writes), ms(wl), ms(ws), s.wall.Seconds())
}

// meets reports whether the step's read p99 meets the limit with no
// growing backlog: the last tenth of its reads still finish within it.
func (s stepResult) meets() bool {
	if len(s.reads) == 0 {
		return false
	}
	tail := s.reads[len(s.reads)-max(1, len(s.reads)/10):]
	return s.readP99() <= serveReadLimit && quantile(latencies(tail), 0.5) <= serveReadLimit
}

func runServeMixed(ctx context.Context, e env, tr *tracer) (*outcome, error) {
	cp, err := genCorpus(e.seed, serveEntities)
	if err != nil {
		return nil, err
	}
	srcs, rest, err := cp.split(e.dir, servePreload)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	plan := writePlan(rng, cp, rest)
	var preloaded []string
	for _, recs := range cp.sources {
		for _, rec := range recs[:int(float64(len(recs))*servePreload)] {
			preloaded = append(preloaded, rec.URI)
		}
	}
	cfg := serveConfig(srcs, e.workers)

	res, setup, err := openAnswering(ctx, cfg, preloaded[0])
	if err != nil {
		return nil, err
	}
	defer res.Close()
	setups := []time.Duration{setup}
	served := instrument(res, tr, "incremental")
	before, err := served.Stats()
	if err != nil {
		return nil, err
	}
	perfBefore := served.(er.PerfReporter).Perf()
	base, stop, err := startServer(served, tr)
	if err != nil {
		return nil, err
	}

	readConns := max(1, e.workers-1)
	conns := make([]*http.Client, readConns+1)
	names := make([]string, readConns+1)
	for i := range conns {
		conns[i] = newConn(serveTimeout)
		names[i] = "loadgen.read"
	}
	names[readConns] = "loadgen.write"

	stepDur := e.seconds / time.Duration(len(serveLadder))
	perStep := func(rate int) int { return int(float64(rate) * stepDur.Seconds()) }
	var steps []stepResult
	nextWrite := 0
	for _, rate := range serveLadder {
		perConn := make([][]*call, len(conns))
		for i, at := range arrivals(rng, perStep(rate), stepDur) {
			uri := url.QueryEscape(preloaded[rng.Intn(len(preloaded))])
			path := [...]string{"/v1/lookup", "/v1/same-as", "/v1/cluster"}[rng.Intn(3)]
			perConn[i%readConns] = append(perConn[i%readConns], &call{at: at, method: http.MethodGet, url: base + path + "?uri=" + uri, write: -1})
		}
		for _, at := range arrivals(rng, perStep(serveWriteRate), stepDur) {
			if nextWrite == len(plan) {
				return nil, fmt.Errorf("write plan of %d ops exhausted; lower serveWriteRate or raise serveEntities", len(plan))
			}
			body, err := opsBody(plan[nextWrite])
			if err != nil {
				return nil, err
			}
			perConn[readConns] = append(perConn[readConns], &call{at: at, method: http.MethodPost, url: base + "/v1/ops", body: body, write: nextWrite})
			nextWrite++
		}
		t0 := time.Now()
		all := runConns(ctx, conns, perConn, tr, names)
		st := stepResult{rate: rate, wall: time.Since(t0)}
		for _, s := range all {
			if s.call.write >= 0 {
				st.writes = append(st.writes, s)
			} else {
				st.reads = append(st.reads, s)
			}
		}
		steps = append(steps, st)
		fmt.Printf("serve-mixed step %d: %s\n", len(steps), st)
	}
	heap := liveHeapMiB()
	if err := stop(ctx); err != nil {
		return nil, err
	}
	for _, c := range conns {
		c.CloseIdleConnections()
	}
	after, err := served.Stats()
	if err != nil {
		return nil, err
	}
	perfAfter := served.(er.PerfReporter).Perf()

	out := &outcome{}
	var acked []*call
	live := append([]string(nil), preloaded...)
	var refused int
	for _, st := range steps {
		for _, s := range append(st.reads, st.writes...) {
			out.attempted++
			if !s.ok() {
				out.failed++
			}
			if s.refused() {
				refused++
			}
		}
		for _, s := range st.writes {
			if s.ok() {
				acked = append(acked, s.call)
				if op := plan[s.call.write]; op.Kind == er.StreamInsert {
					live = append(live, op.URI)
				}
			}
		}
	}
	recall, precision, err := linkQuality(ctx, res, live, cp.truth)
	if err != nil {
		return nil, err
	}

	// The remaining set-ups are replay references: each replays the
	// acknowledged writes in schedule order through its own server, one at
	// a time, outside the timed window. The wall time is the write
	// stream's resolve time without concurrent load, and each must reach
	// the served deployment's final state.
	var resolves []time.Duration
	for i := 1; i < serveSetups; i++ {
		ref, d, err := openAnswering(ctx, cfg, preloaded[0])
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		resolve, err := replay(ctx, ref, acked, out)
		if err != nil {
			ref.Close()
			return nil, err
		}
		resolves = append(resolves, resolve)
		want, err := ref.Stats()
		if err != nil {
			ref.Close()
			return nil, err
		}
		out.check(after == want, "served final stats %v differ from the sequential replay's %v", after, want)
		if err := ref.Close(); err != nil {
			return nil, err
		}
	}

	nom := steps[serveNominal]
	maxRate := 0.0
	for _, st := range steps {
		if st.meets() {
			completed := 0
			for _, s := range append(st.reads, st.writes...) {
				if s.ok() {
					completed++
				}
			}
			maxRate = float64(completed) / st.wall.Seconds()
		}
	}
	readLat, writeLat := latencies(nom.reads), latencies(nom.writes)
	readMean, _ := mean(nom.reads)
	out.work = quantile(readLat, 0.5)
	out.e2e = []metric{
		{"setup_s", median(setups).Seconds(), "s"},
		{"resolve_s", median(resolves).Seconds(), "s"},
		{"recall", recall, "ratio"},
		{"heap_mib", heap, "MiB"},
	}
	out.headline = []metric{
		{"precision", precision, "ratio"},
		{"read_mean_ms", ms(readMean), "ms"},
		{"read_p50_ms", ms(quantile(readLat, 0.5)), "ms"},
		{"read_p99_ms", ms(quantile(readLat, 0.99)), "ms"},
		{"write_p50_ms", ms(quantile(writeLat, 0.5)), "ms"},
		{"write_p90_ms", ms(quantile(writeLat, 0.9)), "ms"},
		{"max_rate_rps", maxRate, "req/s"},
		{"failed_frac", float64(out.failed) / float64(out.attempted), "ratio"},
	}
	fmt.Printf("serve-mixed: %d reads and %d writes at the nominal step (%d reads/s, %d writes/s); %d writes acknowledged\n",
		len(nom.reads), len(nom.writes), nom.rate, serveWriteRate, len(acked))
	if tr == nil {
		return out, nil
	}

	nomSpans := map[int64]bool{}
	for _, s := range append(nom.reads, nom.writes...) {
		nomSpans[s.span] = true
	}
	children := tr.childTime()
	byParent := map[int64][]span{}
	for _, name := range []string{"incremental.query", "incremental.apply"} {
		for _, s := range tr.named(name) {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	var query, self, apply, late []time.Duration
	var busy time.Duration
	for _, c := range tr.named("loadgen.read") {
		if nomSpans[c.ID] {
			self = append(self, c.dur()-children[c.ID])
			for _, q := range byParent[c.ID] {
				query = append(query, q.dur())
			}
		}
	}
	for _, c := range tr.named("loadgen.write") {
		if nomSpans[c.ID] {
			for _, a := range byParent[c.ID] {
				apply = append(apply, a.dur())
				busy += a.dur()
			}
		}
	}
	for _, s := range append(nom.reads, nom.writes...) {
		late = append(late, s.late)
	}
	writes := after.Inserts + after.Updates - before.Inserts - before.Updates
	out.layers = append(perfLayers(perfAfter, after),
		metric{"incremental.query_ms_p50", ms(quantile(query, 0.5)), "ms"},
		metric{"incremental.query_ms_p99", ms(quantile(query, 0.99)), "ms"},
		metric{"serve.read_self_ms_p50", ms(quantile(self, 0.5)), "ms"},
		metric{"serve.read_self_ms_p99", ms(quantile(self, 0.99)), "ms"},
		metric{"incremental.apply_ms_p50", ms(quantile(apply, 0.5)), "ms"},
		metric{"incremental.apply_ms_p90", ms(quantile(apply, 0.9)), "ms"},
		metric{"incremental.apply_busy_share", busy.Seconds() / nom.wall.Seconds(), "ratio"},
		metric{"incremental.comparisons_per_write", float64(after.Comparisons-before.Comparisons) / float64(max(1, writes)), "count"},
		metric{"incremental.shared_read_ratio", float64(perfAfter.SharedReads-perfBefore.SharedReads) / float64(max(1, perfAfter.ReadLocks-perfBefore.ReadLocks)), "ratio"},
		metric{"serve.refused", float64(refused), "count"},
		metric{"loadgen.late_ms_p99", ms(quantile(late, 0.99)), "ms"},
	)
	fmt.Printf("serve-mixed traced nominal step: %d writes, mean apply %.3f ms, write lock held %.2f%% of the step\n",
		len(apply), ms(busy)/float64(max(1, len(apply))), 100*busy.Seconds()/nom.wall.Seconds())
	for i, st := range steps {
		out.layers = append(out.layers, metric{fmt.Sprintf("loadgen.step%d.read_p99_ms", i+1), ms(st.readP99()), "ms"})
	}
	return out, nil
}

// replay posts the acknowledged writes to a server over ref one at a time,
// in order, and returns the wall time they took.
func replay(ctx context.Context, ref er.Resolver, acked []*call, out *outcome) (time.Duration, error) {
	base, stop, err := startServer(ref, nil)
	if err != nil {
		return 0, err
	}
	client := newConn(serveTimeout)
	defer client.CloseIdleConnections()
	runtime.GC()
	t0 := time.Now()
	for _, c := range acked {
		out.attempted++
		resp, err := client.Post(base+"/v1/ops", "application/json", bytes.NewReader(c.body))
		if err != nil {
			stop(ctx)
			return 0, fmt.Errorf("replay: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			out.failed++
		}
	}
	d := time.Since(t0)
	return d, stop(ctx)
}
