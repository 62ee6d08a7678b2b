package main

import (
	"context"
	"testing"

	"entityres/er"
)

// The decorator must be transparent: the same operations through a wrapped
// and an unwrapped deployment leave identical stats and work counters.
func TestTimedResolverIsTransparent(t *testing.T) {
	ctx := context.Background()
	cp, err := genCorpus(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	_, ops, err := cp.split(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]func(dir string) er.Config{
		"single": func(string) er.Config { return serveConfig(nil, 2) },
		"durable-sharded-meta": func(dir string) er.Config {
			cfg := serveConfig(nil, 2)
			cfg.Meta = &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP}
			cfg.Dir, cfg.Shards, cfg.Durable = dir, durableShards, durableOptions
			return cfg
		},
	}
	for name, cfgOf := range forms {
		t.Run(name, func(t *testing.T) {
			run := func(tr *tracer) (er.StreamingStats, er.StreamingPerf, []er.StreamingRecovery) {
				r, err := er.Open(ctx, cfgOf(t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				r = instrument(r, tr, "layer")
				defer r.Close()
				for at := 0; at < len(ops); at += 16 {
					if err := r.ApplyBatch(ctx, ops[at:min(at+16, len(ops))]); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Query(ctx, er.Query{URI: ops[at].URI, Cluster: true}); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				st, err := r.Stats()
				if err != nil {
					t.Fatal(err)
				}
				return st, r.(er.PerfReporter).Perf(), r.(er.DurableReporter).Recovery()
			}
			tr := newTracer()
			st, perf, rec := run(nil)
			wst, wperf, wrec := run(tr)
			if st != wst || perf != wperf {
				t.Fatalf("wrapped run differs:\nstats %v\n   vs %v\nperf %+v\n  vs %+v", wst, st, wperf, perf)
			}
			if len(rec) != len(wrec) {
				t.Fatalf("wrapped recovery %v, unwrapped %v", wrec, rec)
			}
			batches := (len(ops) + 15) / 16
			if n := len(tr.named("layer.apply")); n != batches {
				t.Fatalf("%d apply spans, want %d", n, batches)
			}
			if n := len(tr.named("layer.query")); n != batches {
				t.Fatalf("%d query spans, want %d", n, batches)
			}
		})
	}
}

// The membership walk must find exactly the truth pairs that enumerating
// every comparison finds.
func TestStageQualityMatchesEnumeration(t *testing.T) {
	light := er.LightCorruption()
	c, gt, err := er.GenerateCleanClean(er.GenConfig{Seed: 5, Entities: 300, DupRatio: 0.5, Corruption: &light})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&er.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	purged := (&er.MaxComparisonsPurge{Max: 200}).Process(bs)
	for name, blocks := range map[string]*er.Blocks{"blocked": bs, "purged": purged} {
		q := evalBlocks(c, blocks, gt.Pairs())
		want := er.EvaluateBlocking(c, blocks, gt)
		if q.pc != want.PC || q.comparisons != want.Total {
			t.Errorf("%s: pc %v comparisons %d, enumeration gives pc %v aggregate %d", name, q.pc, q.comparisons, want.PC, want.Total)
		}
	}
}
