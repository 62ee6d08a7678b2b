package token

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Jean-Luc PICARD", "jean luc picard"},
		{"a.b,c;d", "a b c d"},
		{"", ""},
		{"123-ABC", "123 abc"},
		{"Ünïcode Straße", "ünïcode straße"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The  Quick-Brown fox! 42")
	want := []string{"the", "quick", "brown", "fox", "42"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if Tokenize("   ") != nil && len(Tokenize("   ")) != 0 {
		t.Fatal("blank input should yield no tokens")
	}
}

func TestTokenizeFiltered(t *testing.T) {
	stop := DefaultStopwords()
	got := TokenizeFiltered("The matrix of the rings", stop, 3)
	want := []string{"matrix", "rings"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeFiltered = %v, want %v", got, want)
	}
	// nil stopwords and minLen 0 keep everything.
	got = TokenizeFiltered("a bb", nil, 0)
	if !reflect.DeepEqual(got, []string{"a", "bb"}) {
		t.Fatalf("unfiltered = %v", got)
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 2)
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QGrams(ab,2) = %v, want %v", got, want)
	}
	if QGrams("", 2) != nil {
		t.Fatal("QGrams on empty should be nil")
	}
	if QGrams("abc", 0) != nil {
		t.Fatal("QGrams with q<1 should be nil")
	}
	if got := QGrams("ab", 1); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("QGrams(ab,1) = %v", got)
	}
}

// Property: padded q-gram count equals len(norm)+q-1 for non-empty strings.
func TestQGramsCountProperty(t *testing.T) {
	f := func(s string) bool {
		const q = 3
		grams := QGrams(s, q)
		norm := Tokenize(s)
		if len(norm) == 0 {
			return grams == nil
		}
		joined := 0
		for i, tok := range norm {
			if i > 0 {
				joined++
			}
			joined += len([]rune(tok))
		}
		return len(grams) == joined+q-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStopwords(t *testing.T) {
	s := NewStopwords("The", "AND")
	if !s.Contains("the") || !s.Contains("and") {
		t.Fatal("stopwords should be normalized")
	}
	if s.Contains("fox") {
		t.Fatal("non-stopword reported")
	}
	var nilSet Stopwords
	if nilSet.Contains("the") {
		t.Fatal("nil stopwords should contain nothing")
	}
}
