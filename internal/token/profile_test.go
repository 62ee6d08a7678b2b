package token

import (
	"reflect"
	"testing"

	"entityres/internal/entity"
)

func TestProfilerSchemaAgnostic(t *testing.T) {
	d := entity.NewDescription("").Add("name", "Alice Smith").Add("job", "Smith Forge")
	p := &Profiler{}
	got := p.Tokens(d)
	want := []string{"alice", "smith", "smith", "forge"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	set := p.Set(d)
	if set.Len() != 3 {
		t.Fatalf("Set = %v", set)
	}
}

func TestProfilerStopwords(t *testing.T) {
	d := entity.NewDescription("").Add("t", "the of ab abc")
	p := &Profiler{Stopwords: DefaultStopwords()}
	got := p.Tokens(d)
	if !reflect.DeepEqual(got, []string{"ab", "abc"}) {
		t.Fatalf("Tokens = %v", got)
	}
}

func TestDefaultProfiler(t *testing.T) {
	p := DefaultProfiler()
	if p.Stopwords == nil || p.SkipRefValues {
		t.Fatal("DefaultProfiler misconfigured")
	}
	// Callers get a copy: changing it leaves the shared default alone.
	p.SkipRefValues = true
	if DefaultProfiler().SkipRefValues {
		t.Fatal("DefaultProfiler returned the shared value")
	}
}

// TestNilProfilerIsDefault: every method reads a nil receiver as the
// default profiler, while a non-nil zero Profiler keeps stopwords.
func TestNilProfilerIsDefault(t *testing.T) {
	d := entity.NewDescription("").Add("name", "the Alice of Smith").Add("knows", "http://kb/bob")
	var nilP *Profiler
	def := DefaultProfiler()
	if got, want := nilP.Tokens(d), def.Tokens(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil Tokens = %v, default %v", got, want)
	}
	if got, want := nilP.Set(d), def.Set(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil Set = %v, default %v", got, want)
	}
	if got := nilP.ValueTokens("The Matrix"); !reflect.DeepEqual(got, []string{"matrix"}) {
		t.Fatalf("nil ValueTokens = %v", got)
	}
	if got := (&Profiler{}).ValueTokens("The Matrix"); !reflect.DeepEqual(got, []string{"the", "matrix"}) {
		t.Fatalf("zero-profiler ValueTokens = %v", got)
	}
}
