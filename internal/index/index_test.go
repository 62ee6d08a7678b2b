package index

import (
	"math"
	"reflect"
	"testing"

	"entityres/internal/entity"
	"entityres/internal/similarity"
	"entityres/internal/token"
)

func buildSample(t *testing.T) (*entity.Collection, *Inverted) {
	t.Helper()
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("name", "alice smith"))
	c.MustAdd(entity.NewDescription("").Add("name", "bob smith"))
	c.MustAdd(entity.NewDescription("").Add("name", "carol jones"))
	p := &token.Profiler{}
	return c, Build(c, p)
}

func TestBuildStatistics(t *testing.T) {
	_, ix := buildSample(t)
	if ix.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.DF("smith") != 2 || ix.DF("alice") != 1 || ix.DF("zz") != 0 {
		t.Fatalf("DF wrong: smith=%d alice=%d", ix.DF("smith"), ix.DF("alice"))
	}
	if ix.NumTokens() != 5 {
		t.Fatalf("NumTokens = %d", ix.NumTokens())
	}
	want := []string{"alice", "bob", "carol", "jones", "smith"}
	if got := ix.Tokens(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v", got)
	}
}

func TestPostingsAndDocLen(t *testing.T) {
	_, ix := buildSample(t)
	ps := ix.Postings("smith")
	if len(ps) != 2 || ps[0].Doc != 0 || ps[1].Doc != 1 {
		t.Fatalf("Postings(smith) = %v", ps)
	}
	if ix.DocLen(0) != 2 || ix.DocLen(99) != 0 {
		t.Fatalf("DocLen = %d", ix.DocLen(0))
	}
}

func TestIDFMonotone(t *testing.T) {
	_, ix := buildSample(t)
	if ix.IDF("zz") != 0 {
		t.Fatal("IDF of unseen token should be 0")
	}
	if !(ix.IDF("alice") > ix.IDF("smith")) {
		t.Fatalf("rarer token should have higher IDF: alice=%v smith=%v",
			ix.IDF("alice"), ix.IDF("smith"))
	}
	wantSmith := math.Log(1 + 3.0/2.0)
	if math.Abs(ix.IDF("smith")-wantSmith) > 1e-12 {
		t.Fatalf("IDF(smith) = %v, want %v", ix.IDF("smith"), wantSmith)
	}
}

func TestTFIDFVectorAndCosine(t *testing.T) {
	_, ix := buildSample(t)
	v0 := ix.TFIDFVector([]string{"alice", "smith"})
	v1 := ix.TFIDFVector([]string{"bob", "smith"})
	v2 := ix.TFIDFVector([]string{"carol", "jones"})
	if len(v0) != 2 {
		t.Fatalf("vector = %v", v0)
	}
	s01 := similarity.Cosine(v0, v1)
	s02 := similarity.Cosine(v0, v2)
	if !(s01 > s02) {
		t.Fatalf("shared-token cosine should dominate: %v vs %v", s01, s02)
	}
	if s02 != 0 {
		t.Fatalf("disjoint cosine = %v", s02)
	}
	// Unknown tokens contribute nothing.
	v := ix.TFIDFVector([]string{"unseen"})
	if len(v) != 0 {
		t.Fatalf("unseen tokens should vanish: %v", v)
	}
}

func TestTFCounts(t *testing.T) {
	ix := BuildFromTokens([]entity.ID{7}, [][]string{{"a", "a", "b"}})
	ps := ix.Postings("a")
	if len(ps) != 1 || ps[0].TF != 2 || ps[0].Doc != 7 {
		t.Fatalf("Postings(a) = %v", ps)
	}
	if ix.DocLen(7) != 3 {
		t.Fatalf("DocLen = %d", ix.DocLen(7))
	}
}

func TestEmptyDocumentCounts(t *testing.T) {
	ix := BuildFromTokens([]entity.ID{0, 1}, [][]string{{}, {"x"}})
	if ix.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.DF("x") != 1 {
		t.Fatalf("DF(x) = %d", ix.DF("x"))
	}
}

func TestEachTokenEarlyStop(t *testing.T) {
	_, ix := buildSample(t)
	n := 0
	ix.EachToken(func(string, []Posting) bool { n++; return false })
	if n != 1 {
		t.Fatalf("EachToken early stop visited %d", n)
	}
	n = 0
	ix.EachToken(func(string, []Posting) bool { n++; return true })
	if n != ix.NumTokens() {
		t.Fatalf("EachToken visited %d of %d", n, ix.NumTokens())
	}
}
