// Command perfbench is the repository benchmark. It runs one workload
// against the public surfaces — the er facade, internal/serve and the
// exported stage functions the parallel engine composes — checks that the
// outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// The metrics and their units are the ones BENCHMARK.json lists, read from
// the working directory. With -trace 0 the metrics are the end-to-end ones. With
// -trace 1 the workload runs twice, untraced and then traced, and the
// metrics are the per-layer ones: the workload's headline figures from the
// untraced pass, the layer figures derived from the traced pass's spans,
// and the tracing overhead. Spans are written under
// .bench_build/perfbench/traces.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench -workload batch-interlink|serve-mixed|durable-ingest|all -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds time.Duration
	// dir is the run's scratch directory inside the checkout.
	dir string
	// workers sizes the engine, the resolvers and the client connections.
	workers int
	// compare is set in both passes of a traced run: the workload then
	// times the phase its tracing overhead is computed on the same way
	// in each.
	compare bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	e2e []metric
	// headline holds the workload's own user-facing figures, reported with
	// the per-layer metrics.
	headline []metric
	layers   []metric
	// attempted and failed count the workload's operations.
	attempted, failed int64
	// problems lists failed correctness checks; empty means correct.
	problems []string
	// work is the measured phase the tracing overhead is reported on,
	// timed the same way in the untraced and the traced pass.
	work time.Duration
	// digest identifies the outputs, compared across the untraced and
	// traced runs where a workload's outputs are deterministic.
	digest string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, e env, tr *tracer) (*outcome, error)

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"batch-interlink", runBatchInterlink},
	{"serve-mixed", runServeMixed},
	{"durable-ingest", runDurableIngest},
}

// result is the final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: batch-interlink, serve-mixed, durable-ingest or all")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 25, "measurement time per workload")
	trace := flag.Int("trace", 0, "1 runs the workload untraced and traced and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var selected []string
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	sp, err := loadSpecs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading the metric list:", err)
		os.Exit(2)
	}
	res, err := run(sp, selected, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the selected workloads; with several, metric names carry
// the workload as a prefix.
func run(sp *specs, selected []string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, name := range selected {
		var fn workloadFunc
		for _, w := range workloads {
			if w.name == name {
				fn = w.run
			}
		}
		dir, err := os.MkdirTemp(root, "run-")
		if err != nil {
			return nil, err
		}
		e := env{seed: seed, seconds: seconds, dir: dir, workers: runtime.NumCPU(), compare: traced}
		ms, out, err := runWorkload(sp, name, fn, e, traced, root)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("== %s (seed %d, %v, trace %v, %d workers)\n", name, seed, seconds, traced, e.workers)
		for _, m := range ms {
			key := m.Name
			if len(selected) > 1 {
				key = name + "." + m.Name
			}
			res.Metrics[key] = metricJSON{Value: m.Value, Unit: m.Unit}
			fmt.Printf("%-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		for _, p := range out.problems {
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
		res.Correct = res.Correct && len(out.problems) == 0
		res.Attempted += out.attempted
		res.Failed += out.failed
	}
	return res, nil
}

// runWorkload returns the workload's end-to-end metrics, or — traced — its
// per-layer metrics with the tracing overhead, after writing the spans.
func runWorkload(sp *specs, name string, fn workloadFunc, e env, traced bool, root string) ([]metric, *outcome, error) {
	ctx := context.Background()
	out, err := fn(ctx, e, nil)
	if err != nil {
		return nil, nil, err
	}
	if !traced {
		ms, err := complete(sp.EndToEnd, out.e2e)
		return ms, out, err
	}
	tr := newTracer()
	tout, err := fn(ctx, e, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	tout.problems = append(out.problems, tout.problems...)
	tout.check(tout.digest == out.digest, "traced outputs %s differ from untraced outputs %s", tout.digest, out.digest)
	tout.attempted += out.attempted
	tout.failed += out.failed
	layers, err := complete(sp.PerLayer, append(append(out.headline, tout.layers...),
		metric{"trace.overhead_pct", 100 * (tout.work.Seconds()/out.work.Seconds() - 1), "%"}))
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tr.write(path, layers); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return layers, tout, nil
}

// quantile returns the nearest-rank q-quantile of ds (q in (0, 1]).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is quantile(ds, 0.5) for a handful of repetitions, averaging the
// middle pair of an even count.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMiB forces a collection and reports the live heap; callers keep
// the workload's state reachable across the call. The second collection
// also frees what sync.Pool victim caches kept through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}
