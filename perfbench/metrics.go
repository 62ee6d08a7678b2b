package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"entityres/er"
)

// metricSpec names one metric with its unit and direction.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// specs are the metrics BENCHMARK.json lists: the end-to-end ones every
// workload reports untraced, and the per-layer ones every traced run
// reports — each workload's own headline figures from its untraced pass,
// then the layer figures of its traced pass. A workload reports 0 for a
// figure of a layer it does not call.
type specs struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpecs reads the metric lists from the BENCHMARK.json at path.
func loadSpecs(path string) (*specs, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp specs
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &sp, nil
}

// complete orders ms by spec, with 0 for every spec a workload did not
// report, and fails on a metric the spec does not list.
func complete(spec []metricSpec, ms []metric) ([]metric, error) {
	got := map[string]metric{}
	for _, m := range ms {
		got[m.Name] = m
	}
	out := make([]metric, len(spec))
	for i, s := range spec {
		m, ok := got[s.Name]
		if ok && m.Unit != s.Unit {
			return nil, fmt.Errorf("metric %s reported in %s, listed in %s", s.Name, m.Unit, s.Unit)
		}
		delete(got, s.Name)
		out[i] = metric{s.Name, m.Value, s.Unit}
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not listed", name)
	}
	return out, nil
}

// perfLayers renders a resolver's work counters and meta-blocking sizes.
func perfLayers(p er.StreamingPerf, st er.StreamingStats) []metric {
	return []metric{
		{"metablocking.candidate_pairs", float64(st.CandidatePairs), "count"},
		{"metablocking.kept_pairs", float64(st.KeptPairs), "count"},
		{"metablocking.kept_ratio", float64(st.KeptPairs) / float64(max(1, st.CandidatePairs)), "ratio"},
		{"incremental.reconcile_examined", float64(p.ReconcileExamined), "count"},
		{"incremental.reconcile_evaluated", float64(p.ReconcileEvaluated), "count"},
		{"incremental.journal_appends", float64(p.JournalAppends), "count"},
		{"incremental.fan_outs", float64(p.FanOuts), "count"},
		{"incremental.full_snapshots", float64(p.FullSnapshots), "count"},
		{"incremental.delta_snapshots", float64(p.DeltaSnapshots), "count"},
		{"incremental.snapshot_slots", float64(p.SnapshotSlots), "count"},
	}
}

// linkQuality scores a live deployment's same-as links against the truth
// pairs whose two descriptions are both among uris, the live set.
func linkQuality(ctx context.Context, r er.Resolver, uris []string, truth [][2]string) (recall, precision float64, err error) {
	uriOf := make(map[er.ID]string, len(uris))
	sameAs := make(map[string][]er.ID, len(uris))
	for _, u := range uris {
		res, err := r.Query(ctx, er.Query{URI: u})
		if err != nil {
			return 0, 0, fmt.Errorf("same-as %s: %w", u, err)
		}
		uriOf[res.ID] = u
		sameAs[u] = res.SameAs
	}
	links := map[[2]string]bool{}
	for u, ids := range sameAs {
		for _, id := range ids {
			v, ok := uriOf[id]
			if !ok {
				return 0, 0, fmt.Errorf("%s is linked to handle %d, which no live description has", u, id)
			}
			links[[2]string{min(u, v), max(u, v)}] = true
		}
	}
	live, found := 0, 0
	for _, t := range truth {
		if _, ok := sameAs[t[0]]; !ok {
			continue
		}
		if _, ok := sameAs[t[1]]; !ok {
			continue
		}
		live++
		if links[[2]string{min(t[0], t[1]), max(t[0], t[1])}] {
			found++
		}
	}
	if live == 0 || len(links) == 0 {
		return 0, 0, fmt.Errorf("no live truth pairs (%d) or no links (%d) to score", live, len(links))
	}
	return float64(found) / float64(live), float64(found) / float64(len(links)), nil
}
