package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/tabular"
)

// The clean-clean golden scenario pins the tabular interlinking path: two
// committed CSV sources with committed cross-source ground truth, resolved
// by the same pinned pipeline as the dirty golden, must keep producing the
// committed match pairs, per-source export files and quality metrics. It
// shares the -update flag with TestGoldenPipeline.
//
//	go test ./internal/experiments -run TestGoldenCleanClean -update

// goldenCCConfig is the generator behind the committed CSV pair; it only
// runs under -update.
func goldenCCConfig() datagen.Config {
	light := datagen.LightCorruption()
	return datagen.Config{
		Seed:        777,
		Entities:    120,
		DupRatio:    0.6,
		SchemaNoise: 0.5,
		Domain:      datagen.People,
		Corruption:  &light,
	}
}

// ccFixture names one clean-clean fixture file.
func ccFixture(name string) string { return filepath.Join(goldenDir, "cc_"+name) }

// resolveCC parses the committed CSV sources and truth exactly as a user
// would, resolves with the pinned pipeline, and renders every diffable
// artifact. Both the test and -update regeneration go through this one
// path, so the committed artifacts are by construction what a fresh parse
// reproduces.
func resolveCC(t *testing.T) (artifacts map[string]string, c *entity.Collection, res *core.Result) {
	t.Helper()
	c = entity.NewCollection(entity.CleanClean)
	for s, name := range []string{"kb0.csv", "kb1.csv"} {
		f, err := os.Open(ccFixture(name))
		if err != nil {
			t.Fatalf("%v (run with -update to generate the fixtures)", err)
		}
		err = tabular.AddCSV(c, f, s, tabular.Options{})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	tf, err := os.Open(ccFixture("truth.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	gt, err := entity.ReadURIMatches(c, tf)
	if err != nil {
		t.Fatal(err)
	}
	res, err = goldenPipeline().Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	matches, metrics, err := renderGolden(c, res, gt)
	if err != nil {
		t.Fatal(err)
	}
	artifacts = map[string]string{
		"cc_matches.tsv": matches,
		"cc_metrics.txt": metrics,
	}
	for s := 0; s < 2; s++ {
		var buf bytes.Buffer
		if err := entity.WriteSourceMatches(&buf, c, res.Matches, s); err != nil {
			t.Fatal(err)
		}
		artifacts["cc_export"+string(rune('0'+s))+".tsv"] = buf.String()
	}
	return artifacts, c, res
}

// regenerateCC writes the two CSV sources and the truth from the
// generator, then renders the resolved artifacts through the same parse
// path the test uses.
func regenerateCC(t *testing.T) {
	t.Helper()
	cfg := goldenCCConfig()
	c, gt, err := datagen.GenerateCleanClean(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		columns, err := datagen.StreamColumns(cfg, s == 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cw, err := tabular.NewCSVWriter(&buf, columns, tabular.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.All() {
			if d.Source != s {
				continue
			}
			if err := cw.Write(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		name := "kb0.csv"
		if s == 1 {
			name = "kb1.csv"
		}
		if err := os.WriteFile(ccFixture(name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var truth bytes.Buffer
	if err := entity.WriteURIMatches(&truth, c, gt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ccFixture("truth.tsv"), truth.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	artifacts, _, _ := resolveCC(t)
	for name, content := range artifacts {
		if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenCleanClean is the tabular interlinking regression gate: parse
// the committed CSV sources, resolve with the pinned configuration, and
// diff the match pairs, both per-source exports and the metrics against
// the committed fixtures.
func TestGoldenCleanClean(t *testing.T) {
	if *update {
		regenerateCC(t)
	}
	artifacts, c, _ := resolveCC(t)
	for name, got := range artifacts {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from the golden fixture (re-run with -update if the change is intended):\ngot:\n%s\nwant:\n%s",
				name, got, want)
		}
	}

	// The streaming resolver must interlink the two sources identically —
	// the clean-clean end-to-end form of the differential guarantee.
	stream := goldenPipeline()
	stream.Mode = core.Streaming
	sres, err := stream.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var sm bytes.Buffer
	if err := entity.WriteURIMatches(&sm, c, sres.Matches); err != nil {
		t.Fatal(err)
	}
	if sm.String() != artifacts["cc_matches.tsv"] {
		t.Errorf("streaming mode drifted from the batch golden matches")
	}
}
