package er_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"entityres/er"
)

// The tabular differential suite: the same logical records rendered as
// CSV, JSON-lines and round-tripped N-Triples must resolve bit-identically
// — matches, comparison counts, restructured blocks — through batch,
// streaming and 2-shard deployments. This extends the PR 2/PR 5
// differential harness with a source-format axis: the three parsers may
// order attributes differently (CSV column order, JSONL key order, RDF
// sorted), but every token-based stage must be blind to that.

// tabularScenario renders one clean-clean corpus in all three formats,
// split per source. Index 0/1 of each slice is the source file.
type tabularScenario struct {
	collection *er.Collection
	truth      *er.Matches
	csv        [2][]byte
	jsonl      [2][]byte
	nt         [2][]byte
}

func makeTabularScenario(t *testing.T, cfg er.GenConfig) *tabularScenario {
	t.Helper()
	c, truth, err := er.GenerateCleanClean(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perSource [2][]*er.Description
	for _, d := range c.All() {
		perSource[d.Source] = append(perSource[d.Source], d)
	}
	sc := &tabularScenario{collection: c, truth: truth}
	for s := 0; s < 2; s++ {
		var csvBuf, jsonlBuf, ntBuf bytes.Buffer
		if err := er.WriteCSV(&csvBuf, perSource[s], er.TabularOptions{}); err != nil {
			t.Fatalf("render csv source %d: %v", s, err)
		}
		if err := er.WriteJSONL(&jsonlBuf, perSource[s], er.TabularOptions{}); err != nil {
			t.Fatalf("render jsonl source %d: %v", s, err)
		}
		sub := er.NewCollection(er.Dirty)
		for _, d := range perSource[s] {
			clone := d.Clone()
			clone.Source = 0
			if _, err := sub.Add(clone); err != nil {
				t.Fatal(err)
			}
		}
		if err := er.WriteNTriples(&ntBuf, sub); err != nil {
			t.Fatalf("render nt source %d: %v", s, err)
		}
		sc.csv[s] = csvBuf.Bytes()
		sc.jsonl[s] = jsonlBuf.Bytes()
		sc.nt[s] = ntBuf.Bytes()
	}
	return sc
}

// parse ingests the scenario's rendering of the given format back into a
// fresh clean-clean collection.
func (sc *tabularScenario) parse(t *testing.T, format string) *er.Collection {
	t.Helper()
	c := er.NewCollection(er.CleanClean)
	for s := 0; s < 2; s++ {
		var err error
		switch format {
		case "csv":
			err = er.ReadCSV(c, bytes.NewReader(sc.csv[s]), s, er.TabularOptions{})
		case "jsonl":
			err = er.ReadJSONL(c, bytes.NewReader(sc.jsonl[s]), s, er.TabularOptions{})
		case "nt":
			err = er.ReadNTriples(c, bytes.NewReader(sc.nt[s]), s)
		default:
			t.Fatalf("unknown format %q", format)
		}
		if err != nil {
			t.Fatalf("parse %s source %d: %v", format, s, err)
		}
	}
	return c
}

// files writes the format's per-source renderings to disk and returns
// er.Source entries for Open preloading.
func (sc *tabularScenario) files(t *testing.T, format string) []er.Source {
	t.Helper()
	dir := t.TempDir()
	docs := map[string][2][]byte{"csv": sc.csv, "jsonl": sc.jsonl, "nt": sc.nt}[format]
	sources := make([]er.Source, 2)
	for s := 0; s < 2; s++ {
		path := filepath.Join(dir, fmt.Sprintf("kb%d.%s", s, format))
		if err := os.WriteFile(path, docs[s], 0o644); err != nil {
			t.Fatal(err)
		}
		sources[s] = er.Source{Path: path, Index: s}
	}
	return sources
}

// matchDigest renders a match set as its deterministic truth-TSV bytes.
func matchDigest(t *testing.T, c *er.Collection, m *er.Matches) string {
	t.Helper()
	var buf bytes.Buffer
	if err := er.WriteTruthTSV(&buf, c, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// blockDigest canonicalizes a blocking collection: one line per block —
// key, sorted member URIs per side — sorted, so formats that discover
// tokens in different orders still digest identically iff the blocks are
// identical.
func blockDigest(t *testing.T, c *er.Collection, blocks *er.Blocks) string {
	t.Helper()
	uris := func(ids []er.ID) string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = c.Get(id).URI
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	var lines []string
	for _, b := range blocks.All() {
		lines = append(lines, b.Key+"|"+uris(b.S0)+"|"+uris(b.S1))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func tabularPipelines() map[string]func() *er.Pipeline {
	return map[string]func() *er.Pipeline{
		"plain": func() *er.Pipeline {
			return &er.Pipeline{
				Blocker: &er.TokenBlocking{},
				Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			}
		},
		"meta": func() *er.Pipeline {
			return &er.Pipeline{
				Blocker: &er.TokenBlocking{},
				Meta:    &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP},
				Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			}
		},
	}
}

// TestTabularDifferentialParity is the batch leg: identical matches,
// comparison counts and (restructured) blocks across the three formats,
// with and without meta-blocking.
func TestTabularDifferentialParity(t *testing.T) {
	sc := makeTabularScenario(t, er.GenConfig{Seed: 77, Entities: 150, DupRatio: 0.6})
	formats := []string{"csv", "jsonl", "nt"}
	for pipeName, mk := range tabularPipelines() {
		var wantMatches, wantBlocks string
		var wantComparisons int64
		for i, format := range formats {
			c := sc.parse(t, format)
			if c.Len() != sc.collection.Len() {
				t.Fatalf("%s parsed %d descriptions, generated %d", format, c.Len(), sc.collection.Len())
			}
			res, err := mk().Run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s/%s: %v", pipeName, format, err)
			}
			gotMatches := matchDigest(t, c, res.Matches)
			gotBlocks := blockDigest(t, c, res.Blocks)
			if i == 0 {
				wantMatches, wantBlocks, wantComparisons = gotMatches, gotBlocks, res.Comparisons
				if res.Matches.Len() == 0 {
					t.Fatalf("%s/%s: scenario produced no matches, parity is vacuous", pipeName, format)
				}
				// The scenario must actually resolve: most truth pairs found.
				prf := er.ComparePairs(res.Matches, sc.truth)
				if prf.Recall < 0.5 {
					t.Fatalf("%s/%s: recall %.3f too low for a meaningful scenario", pipeName, format, prf.Recall)
				}
				continue
			}
			if gotMatches != wantMatches {
				t.Fatalf("%s: %s matches diverge from %s", pipeName, format, formats[0])
			}
			if res.Comparisons != wantComparisons {
				t.Fatalf("%s: %s made %d comparisons, %s made %d", pipeName, format, res.Comparisons, formats[0], wantComparisons)
			}
			if gotBlocks != wantBlocks {
				t.Fatalf("%s: %s blocks diverge from %s", pipeName, format, formats[0])
			}
		}
	}
}

// TestTabularDeploymentParity is the deployment leg: the same per-source
// files preloaded through er.Open's Sources config resolve to bit-equal
// stats and per-URI match partners on the single-node streaming and the
// 2-shard deployments, for every format.
func TestTabularDeploymentParity(t *testing.T) {
	sc := makeTabularScenario(t, er.GenConfig{Seed: 77, Entities: 120, DupRatio: 0.6})
	ctx := context.Background()

	baseCfg := func() er.Config {
		return er.Config{
			Kind:    er.CleanClean,
			Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			Meta:    &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP},
		}
	}

	// Every live URI, in insertion order, for the SameAs sweep.
	var uris []string
	for _, d := range sc.collection.All() {
		uris = append(uris, d.URI)
	}

	var wantStats er.StreamingStats
	var wantSameAs string
	first := ""
	for _, format := range []string{"csv", "jsonl", "nt"} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s/shards=%d", format, shards)
			cfg := baseCfg()
			cfg.Sources = sc.files(t, format)
			if shards > 1 {
				cfg.Shards = shards
			}
			r, err := er.Open(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			st := mustStats(t, r)
			if int(st.Inserts) != sc.collection.Len() || st.Live != sc.collection.Len() {
				t.Fatalf("%s: preloaded %d inserts (%d live), want %d", name, st.Inserts, st.Live, sc.collection.Len())
			}
			var sb strings.Builder
			for _, uri := range uris {
				res, err := r.Query(ctx, er.Query{URI: uri})
				if err != nil {
					t.Fatalf("%s: query %s: %v", name, uri, err)
				}
				fmt.Fprintf(&sb, "%s %v\n", uri, res.SameAs)
			}
			r.Close()
			if first == "" {
				first = name
				wantStats, wantSameAs = st, sb.String()
				if st.Matches == 0 {
					t.Fatalf("%s: no matches, parity is vacuous", name)
				}
				continue
			}
			if st != wantStats {
				t.Fatalf("%s stats %+v diverge from %s %+v", name, st, first, wantStats)
			}
			if sb.String() != wantSameAs {
				t.Fatalf("%s per-URI match partners diverge from %s", name, first)
			}
		}
	}
}

// TestSourcePreloadDurableResume checks the ops-log arithmetic around
// Sources: reopening a durable deployment with the same Sources must not
// double-insert (the journal already holds the records), and the resumed
// resolver accepts further operations.
func TestSourcePreloadDurableResume(t *testing.T) {
	sc := makeTabularScenario(t, er.GenConfig{Seed: 5, Entities: 60})
	ctx := context.Background()
	dir := t.TempDir()
	sources := sc.files(t, "csv")

	cfg := er.Config{
		Kind:    er.CleanClean,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Dir:     dir,
		Durable: er.StreamingDurable{NoSync: true},
		Sources: sources,
	}
	r, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatalf("reopen with sources: %v", err)
	}
	defer r2.Close()
	st2 := mustStats(t, r2)
	if st2 != st {
		t.Fatalf("reopen changed stats: %+v -> %+v (sources double-inserted?)", st, st2)
	}
	// The stream continues past the sources.
	d := &er.Description{URI: "http://kb1.example.org/late", Source: 1,
		Attrs: []er.Attribute{{Name: "name", Value: "late arrival"}}}
	if _, err := r2.Insert(ctx, d); err != nil {
		t.Fatalf("insert after resumed preload: %v", err)
	}
	if st3 := mustStats(t, r2); st3.Inserts != st.Inserts+1 {
		t.Fatalf("inserts = %d, want %d", st3.Inserts, st.Inserts+1)
	}
}

// TestSourceFormatInference pins the extension table and its failure mode.
func TestSourceFormatInference(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "a.csv")
	if err := os.WriteFile(csvPath, []byte("id,name\nu1,Alice\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := er.NewCollection(er.Dirty)
	if err := er.ReadSource(c, er.Source{Path: csvPath}); err != nil {
		t.Fatalf("csv inference: %v", err)
	}
	if c.Len() != 1 || c.Get(0).URI != "u1" {
		t.Fatalf("csv source parsed to %+v", c.Get(0))
	}
	if err := er.ReadSource(c, er.Source{Path: filepath.Join(dir, "a.xlsx")}); err == nil ||
		!strings.Contains(err.Error(), "cannot infer format") {
		t.Fatalf("unknown extension error = %v", err)
	}
	if err := er.ReadSource(c, er.Source{Path: csvPath, Format: "parquet"}); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("unknown format error = %v", err)
	}
	if err := er.ReadSource(c, er.Source{Path: filepath.Join(dir, "missing.csv")}); err == nil {
		t.Fatal("missing file must error")
	}
	n, err := er.SourceRecords([]er.Source{{Path: csvPath}})
	if err != nil || n != 1 {
		t.Fatalf("SourceRecords = %d, %v", n, err)
	}
}
