package core

import (
	"context"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/iterative"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/progressive"
	"entityres/internal/token"
)

func testData(t *testing.T) (*entity.Collection, *entity.Matches) {
	t.Helper()
	c, gt, err := datagen.GenerateDirty(datagen.Config{Seed: 8, Entities: 60, DupRatio: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return c, gt
}

func TestPipelineValidation(t *testing.T) {
	if _, err := (&Pipeline{}).Run(context.Background(), entity.NewCollection(entity.Dirty)); err == nil {
		t.Fatal("missing blocker accepted")
	}
	p := &Pipeline{Blocker: &blocking.TokenBlocking{}}
	if _, err := p.Run(context.Background(), entity.NewCollection(entity.Dirty)); err == nil {
		t.Fatal("missing matcher accepted")
	}
}

func TestPipelineBatch(t *testing.T) {
	c, gt := testData(t)
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	prf := evaluation.ComparePairs(res.Matches, gt)
	if prf.Recall < 0.6 {
		t.Fatalf("batch recall = %v", prf.Recall)
	}
	if res.Comparisons <= 0 || res.Blocks.Len() == 0 {
		t.Fatalf("stats missing: %+v", res)
	}
	if len(res.Phases) < 2 {
		t.Fatalf("phases = %v", res.Phases)
	}
	if res.Phases[0].Name != "blocking" {
		t.Fatalf("first phase = %q", res.Phases[0].Name)
	}
}

func TestPipelineWithPlanningPhases(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	plain := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m}
	planned := &Pipeline{
		Blocker:    &blocking.TokenBlocking{},
		Processors: []blockproc.Processor{&blockproc.AutoPurge{}, &blockproc.BlockFiltering{Ratio: 0.8}},
		Meta:       &metablocking.MetaBlocker{Weight: metablocking.ARCS, Prune: metablocking.WNP},
		Matcher:    m,
	}
	r0, err := plain.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := planned.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Comparisons >= r0.Comparisons {
		t.Fatalf("planning should cut comparisons: %d vs %d", r1.Comparisons, r0.Comparisons)
	}
	names := make([]string, 0, len(r1.Phases))
	for _, ph := range r1.Phases {
		names = append(names, ph.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "block-cleaning") || !strings.Contains(joined, "meta-blocking") {
		t.Fatalf("phases = %v", names)
	}
}

func TestPipelineMergingIterative(t *testing.T) {
	c, gt := testData(t)
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.75},
		Mode:    MergingIterative,
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	prf := evaluation.ComparePairs(res.Matches, gt)
	if prf.Recall < 0.5 {
		t.Fatalf("swoosh recall = %v", prf.Recall)
	}
	if len(res.Clusters()) == 0 {
		t.Fatal("no clusters")
	}
}

func TestPipelineIterativeBlocks(t *testing.T) {
	c, gt := testData(t)
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.75},
		Mode:    IterativeBlocks,
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if evaluation.ComparePairs(res.Matches, gt).Recall < 0.5 {
		t.Fatal("iterative blocking recall too low")
	}
}

func TestPipelineCollective(t *testing.T) {
	c, gt, err := datagen.GenerateBibliographic(datagen.Config{Seed: 14, Entities: 30, DupRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	prof := &token.Profiler{Stopwords: token.DefaultStopwords(), SkipRefValues: true}
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Mode:    Collective,
		CollectiveConfig: &iterative.Collective{
			Base:      &matching.TokenJaccard{Profiler: prof},
			Alpha:     0.3,
			Threshold: 0.55,
		},
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if evaluation.ComparePairs(res.Matches, gt).Recall <= 0 {
		t.Fatal("collective found nothing")
	}
}

func TestPipelineProgressive(t *testing.T) {
	c, gt := testData(t)
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    Progressive,
		Budget:  100,
		Scheduler: func(c *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
			return progressive.NewPSNM(c, blocking.SortedTokensKey(nil), true, 0)
		},
		GroundTruth: gt,
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparisons > 100 {
		t.Fatalf("budget violated: %d", res.Comparisons)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Final().Recall <= 0 {
		t.Fatal("no progressive recall within budget")
	}
}

func TestPipelineProgressiveDefaults(t *testing.T) {
	c, _ := testData(t)
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    Progressive,
	}
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparisons == 0 {
		t.Fatal("default progressive ran nothing")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Batch: "batch", MergingIterative: "merging-iterative",
		IterativeBlocks: "iterative-blocking", Collective: "collective",
		Progressive: "progressive", Mode(42): "Mode(42)",
	} {
		if m.String() != want {
			t.Fatalf("Mode %d = %q", int(m), m.String())
		}
	}
}
