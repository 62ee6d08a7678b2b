package matching

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/token"
)

func TestTokenContainmentMergeFriendly(t *testing.T) {
	a := entity.NewDescription("").Add("n", "alice smith")
	b := entity.NewDescription("").Add("n", "alice smith").Add("extra", "painter paris 1950")
	tc := &TokenContainment{}
	tj := &TokenJaccard{}
	if got := tc.Sim(a, b); got != 1 {
		t.Fatalf("containment of subset = %v, want 1", got)
	}
	if tj.Sim(a, b) >= tc.Sim(a, b) {
		t.Fatal("jaccard should be diluted by the extra attributes, containment not")
	}
	if tc.Name() != "token-containment" {
		t.Fatal("name")
	}
}

func TestTokenContainmentCustomProfiler(t *testing.T) {
	// A stopword-free profiler keeps "the", which the default drops.
	tc := &TokenContainment{Profiler: &token.Profiler{}}
	a := entity.NewDescription("").Add("x", "the smith")
	b := entity.NewDescription("").Add("y", "the jones")
	if got := tc.Sim(a, b); got != 0.5 {
		t.Fatalf("stopword-free containment = %v, want 0.5", got)
	}
	if got := (&TokenContainment{}).Sim(a, b); got != 0 {
		t.Fatalf("default containment = %v, want 0", got)
	}
}

func TestProfileSimilarityNames(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "x"))
	for _, s := range []ProfileSimilarity{
		&TokenJaccard{}, &TokenContainment{}, NewTFIDFCosine(c, nil),
		&BestValueJW{}, &Weighted{},
	} {
		if s.Name() == "" {
			t.Fatalf("%T has empty name", s)
		}
	}
}

func TestBestValueJWEmptySides(t *testing.T) {
	m := &BestValueJW{}
	a := entity.NewDescription("")
	b := entity.NewDescription("").Add("n", "x")
	if got := m.Sim(a, b); got != 0 {
		t.Fatalf("empty side sim = %v", got)
	}
}

func TestTFIDFCosineSkipRefProfiler(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "alpha").Add("r", "http://x/1"))
	c.MustAdd(entity.NewDescription("").Add("n", "alpha").Add("r", "http://x/2"))
	prof := &token.Profiler{SkipRefValues: true}
	tc := NewTFIDFCosine(c, prof)
	if got := tc.Sim(c.Get(0), c.Get(1)); got != 1 {
		t.Fatalf("ref-skipping cosine = %v, want 1 (URIs ignored)", got)
	}
}

func TestResolveBlocksEmpty(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	bs := blocking.NewBlocks(entity.Dirty)
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.5}
	res := ResolveBlocks(c, bs, m)
	if res.Comparisons != 0 || res.Matches.Len() != 0 {
		t.Fatalf("empty resolve = %+v", res)
	}
}
