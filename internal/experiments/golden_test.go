package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/matching"
	"entityres/internal/rdf"
)

// update regenerates the golden fixtures from the generator config below:
//
//	go test ./internal/experiments -run TestGoldenPipeline -update
var update = flag.Bool("update", false, "rewrite the golden end-to-end fixtures")

// The golden scenario pins the full ingestion-to-evaluation path: a
// committed N-Triples KB with committed ground truth, resolved by a fixed
// pipeline configuration, must keep producing the committed match pairs
// and quality metrics. Any change to tokenization, blocking, matching or
// evaluation that shifts end-to-end behavior fails this test and forces a
// conscious fixture update.
const goldenDir = "testdata/golden"

// goldenConfig is the generator behind the committed kb.nt; it only runs
// under -update.
func goldenConfig() datagen.Config {
	return datagen.Config{
		Seed:          12345,
		Entities:      150,
		DupRatio:      0.6,
		MaxDuplicates: 2,
		Domain:        datagen.People,
	}
}

// goldenPipeline is the pinned resolution configuration.
func goldenPipeline() *core.Pipeline {
	return &core.Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    core.Batch,
	}
}

// renderGolden produces the two diffable artifacts: the matched URI pairs
// and the metrics summary.
func renderGolden(c *entity.Collection, res *core.Result, gt *entity.Matches) (matches, metrics string, err error) {
	var mbuf bytes.Buffer
	if err := entity.WriteURIMatches(&mbuf, c, res.Matches); err != nil {
		return "", "", err
	}
	bm := evaluation.EvaluateBlocking(c, res.Blocks, gt)
	prf := evaluation.ComparePairs(res.Matches, gt)
	var sbuf bytes.Buffer
	fmt.Fprintf(&sbuf, "descriptions %d\n", c.Len())
	fmt.Fprintf(&sbuf, "truth_pairs %d\n", gt.Len())
	fmt.Fprintf(&sbuf, "blocks %d\n", bm.Blocks)
	fmt.Fprintf(&sbuf, "distinct_comparisons %d\n", bm.Distinct)
	fmt.Fprintf(&sbuf, "PC %.6f\n", bm.PC)
	fmt.Fprintf(&sbuf, "PQ %.6f\n", bm.PQ)
	fmt.Fprintf(&sbuf, "RR %.6f\n", bm.RR)
	fmt.Fprintf(&sbuf, "matches %d\n", res.Matches.Len())
	fmt.Fprintf(&sbuf, "clusters %d\n", len(res.Clusters()))
	fmt.Fprintf(&sbuf, "precision %.6f\n", prf.Precision)
	fmt.Fprintf(&sbuf, "recall %.6f\n", prf.Recall)
	fmt.Fprintf(&sbuf, "F1 %.6f\n", prf.F1)
	return mbuf.String(), sbuf.String(), nil
}

// regenerate writes all four fixture files from the generator.
func regenerate(t *testing.T) {
	t.Helper()
	c, gt, err := datagen.GenerateDirty(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var kb bytes.Buffer
	if err := rdf.WriteCollection(&kb, c); err != nil {
		t.Fatal(err)
	}
	var truth bytes.Buffer
	if err := entity.WriteURIMatches(&truth, c, gt); err != nil {
		t.Fatal(err)
	}
	res, err := goldenPipeline().Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	matches, metrics, err := renderGolden(c, res, gt)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"kb.nt":       kb.String(),
		"truth.tsv":   truth.String(),
		"matches.tsv": matches,
		"metrics.txt": metrics,
	} {
		if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenPipeline is the end-to-end regression gate: parse the committed
// KB, resolve it with the pinned configuration, and diff matches and
// metrics against the committed fixtures.
func TestGoldenPipeline(t *testing.T) {
	if *update {
		regenerate(t)
	}
	kbFile, err := os.Open(filepath.Join(goldenDir, "kb.nt"))
	if err != nil {
		t.Fatalf("%v (run with -update to generate the fixtures)", err)
	}
	defer kbFile.Close()
	c := entity.NewCollection(entity.Dirty)
	if err := rdf.AddToCollection(c, kbFile, 0); err != nil {
		t.Fatal(err)
	}
	truthFile, err := os.Open(filepath.Join(goldenDir, "truth.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer truthFile.Close()
	gt, err := entity.ReadURIMatches(c, truthFile)
	if err != nil {
		t.Fatal(err)
	}

	res, err := goldenPipeline().Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	gotMatches, gotMetrics, err := renderGolden(c, res, gt)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"matches.tsv": gotMatches,
		"metrics.txt": gotMetrics,
	} {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from the golden fixture (re-run with -update if the change is intended):\ngot:\n%s\nwant:\n%s",
				name, got, want)
		}
	}

	// The streaming resolver must reproduce the same golden output — the
	// end-to-end form of the differential guarantee.
	stream := goldenPipeline()
	stream.Mode = core.Streaming
	sres, err := stream.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	streamMatches, _, err := renderGolden(c, sres, gt)
	if err != nil {
		t.Fatal(err)
	}
	if streamMatches != gotMatches {
		t.Errorf("streaming mode drifted from the batch golden matches")
	}
}
