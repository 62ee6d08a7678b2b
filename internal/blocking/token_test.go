package blocking

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"entityres/internal/entity"
	"entityres/internal/token"
)

func TestTokenBlockingDirty(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "alice smith"},
		[]string{"fullName", "smith alice"},
		[]string{"name", "carol jones"},
	)
	bs := blockWith(t, &TokenBlocking{}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("descriptions sharing tokens must share a block despite schema mismatch")
	}
	if sharesBlock(bs, 0, 2) {
		t.Fatal("token-disjoint descriptions must not share a block")
	}
}

func TestTokenBlockingCleanClean(t *testing.T) {
	c := ccCollection(t,
		[][]string{{"title", "matrix reloaded"}, {"title", "inception"}},
		[][]string{{"label", "the matrix reloaded"}, {"label", "dunkirk"}},
	)
	bs := blockWith(t, &TokenBlocking{}, c)
	if !sharesBlock(bs, 0, 2) {
		t.Fatal("cross-source token share must block")
	}
	// Same-source pairs are never suggested in clean-clean blocks.
	bs.EachDistinctComparison(func(p entity.Pair) bool {
		if (p.A < 2) == (p.B < 2) {
			t.Fatalf("same-source comparison suggested: %v", p)
		}
		return true
	})
}

// Property: under a stopword-free profiler, two descriptions share a block
// iff their token sets intersect.
func TestTokenBlockingSharedTokenProperty(t *testing.T) {
	prof := &token.Profiler{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := []string{"alpha", "beta", "gamma", "delta", "eps"}
		c := entity.NewCollection(entity.Dirty)
		sets := make([]token.Set, 6)
		for i := 0; i < 6; i++ {
			d := entity.NewDescription("")
			var toks []string
			for _, v := range vocab {
				if rng.Intn(2) == 0 {
					toks = append(toks, v)
				}
			}
			d.Add("v", strings.Join(toks, " "))
			c.MustAdd(d)
			sets[i] = token.NewSet(toks...)
		}
		bs, err := (&TokenBlocking{Profiler: prof}).Block(c)
		if err != nil {
			return false
		}
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				want := sets[i].IntersectionSize(sets[j]) > 0
				if sharesBlock(bs, i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardBlockingRequiresExactKey(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "Alice Smith"},
		[]string{"name", "alice smith"},     // same normalized value
		[]string{"fullName", "alice smith"}, // different attribute
		[]string{"name", "alice smithe"},    // different value
	)
	bs := blockWith(t, &StandardBlocking{}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("normalized-equal values must share a block")
	}
	if sharesBlock(bs, 0, 2) {
		t.Fatal("standard blocking must be schema-aware")
	}
	if sharesBlock(bs, 0, 3) {
		t.Fatal("near-equal values must not share a standard block")
	}
}

func TestStandardBlockingSelectedAttrs(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "x", "city", "paris"},
		[]string{"name", "y", "city", "paris"},
	)
	bs := blockWith(t, &StandardBlocking{Keys: WholeValueKeys("city")}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("city key must block the pair")
	}
	bs = blockWith(t, &StandardBlocking{Keys: WholeValueKeys("name")}, c)
	if sharesBlock(bs, 0, 1) {
		t.Fatal("name key must not block the pair")
	}
}

func TestQGramsBlockingTypoTolerance(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "smith"},
		[]string{"name", "smyth"},
		[]string{"name", "qqqq"},
	)
	token3 := blockWith(t, &TokenBlocking{}, c)
	if sharesBlock(token3, 0, 1) {
		t.Fatal("token blocking should miss the typo pair (precondition)")
	}
	bs := blockWith(t, &QGramsBlocking{Q: 2}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("q-grams blocking must tolerate the typo")
	}
	if sharesBlock(bs, 0, 2) {
		t.Fatal("gram-disjoint strings must not block")
	}
}

func TestQGramsDefaultQ(t *testing.T) {
	c := dirtyCollection(t, []string{"n", "abcd"}, []string{"n", "abcd"})
	bs := blockWith(t, &QGramsBlocking{}, c)
	if bs.Len() == 0 {
		t.Fatal("default-q blocking produced no blocks")
	}
}

func TestSuffixArrayBlocking(t *testing.T) {
	c := dirtyCollection(t,
		[]string{"name", "katherine"},
		[]string{"name", "catherine"}, // shares suffix "atherine"
		[]string{"name", "bob"},
	)
	bs := blockWith(t, &SuffixArrayBlocking{MinLen: 5}, c)
	if !sharesBlock(bs, 0, 1) {
		t.Fatal("suffix-sharing names must block")
	}
	if sharesBlock(bs, 0, 2) {
		t.Fatal("suffix-disjoint names must not block")
	}
}

func TestSuffixArrayMaxBlockSize(t *testing.T) {
	var rows [][]string
	for i := 0; i < 10; i++ {
		rows = append(rows, []string{"name", "suffixshared"})
	}
	c := dirtyCollection(t, rows...)
	bs := blockWith(t, &SuffixArrayBlocking{MinLen: 4, MaxBlockSize: 5}, c)
	for _, b := range bs.All() {
		if b.Size() > 5 {
			t.Fatalf("oversized block survived: %d", b.Size())
		}
	}
}

func TestBlockerNames(t *testing.T) {
	blockers := []Blocker{
		&TokenBlocking{}, &StandardBlocking{}, &QGramsBlocking{},
		&SuffixArrayBlocking{}, &SortedNeighborhood{}, &AttributeClustering{},
		&Canopy{}, &PrefixInfixSuffix{},
	}
	seen := map[string]bool{}
	for _, b := range blockers {
		n := b.Name()
		if n == "" || seen[n] {
			t.Fatalf("blocker name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}
