package blocking

import (
	"testing"

	"entityres/internal/token"
)

// Clean-clean KBs using disjoint schemas for the same values: attribute
// clustering must link name↔label and job↔occupation, then block within
// clusters.
func TestAttributeClusteringCrossSchema(t *testing.T) {
	c := ccCollection(t,
		[][]string{
			{"name", "alice smith", "job", "painter artist"},
			{"name", "bob jones", "job", "composer musician"},
		},
		[][]string{
			{"label", "alice m smith", "occupation", "painter and artist"},
			{"label", "robert jones", "occupation", "musician composer"},
		},
	)
	bs := blockWith(t, &AttributeClustering{}, c)
	if !sharesBlock(bs, 0, 2) {
		t.Fatal("matching descriptions must share a cluster-qualified block")
	}
}

// The precision win over token blocking: a value colliding across unrelated
// attributes must not create a block once attributes are clustered apart.
func TestAttributeClusteringSeparatesUnrelatedAttrs(t *testing.T) {
	c := ccCollection(t,
		[][]string{
			{"surname", "smith johnson baker", "profession", "welder turner cooper"},
			{"surname", "turner abbott", "profession", "glazier mason"},
		},
		[][]string{
			{"lastname", "smith johnson walker", "craft", "welder turner mason"},
			{"lastname", "turner yates", "craft", "plumber glazier"},
		},
	)
	tb := blockWith(t, &TokenBlocking{}, c)
	ac := blockWith(t, &AttributeClustering{}, c)
	// "turner" as a surname (entity 1) vs as a profession (entity 2 of
	// source 1): token blocking pairs them, attribute clustering must not.
	if !sharesBlock(tb, 1, 2) {
		t.Fatal("precondition: token blocking should suggest the spurious pair")
	}
	if ac.TotalComparisons() >= tb.TotalComparisons() {
		t.Fatalf("attribute clustering should reduce comparisons: %d vs %d",
			ac.TotalComparisons(), tb.TotalComparisons())
	}
}

func TestAttributeClusteringDirty(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "alice smith"},
		[]string{"fullName", "alice smith"},
	)
	bs := blockWith(t, &AttributeClustering{}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("dirty attribute clustering must link name and fullName")
	}
}

func TestAttributeClusteringCustomProfiler(t *testing.T) {
	c := ccCollection(t,
		[][]string{{"name", "the alice"}},
		[][]string{{"label", "the alice"}},
	)
	p := &token.Profiler{Stopwords: token.DefaultStopwords()}
	bs := blockWith(t, &AttributeClustering{Profiler: p}, c)
	for _, b := range bs.All() {
		if b.Key == "the" {
			t.Fatal("stopword key leaked")
		}
	}
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("pair lost")
	}
}

func TestStringUF(t *testing.T) {
	u := newStringUF()
	u.union("b", "a")
	u.union("c", "b")
	if u.find("c") != "a" {
		t.Fatalf("find(c) = %q, want smallest root a", u.find("c"))
	}
	u.union("a", "c") // no-op
	if u.find("a") != "a" {
		t.Fatal("root changed by redundant union")
	}
}
