package token

import (
	"reflect"
	"testing"

	"entityres/internal/entity"
)

func TestIsRefValue(t *testing.T) {
	refs := []string{"http://x/1", "https://x/1", "urn:x:1"}
	for _, v := range refs {
		if !IsRefValue(v) {
			t.Fatalf("IsRefValue(%q) = false", v)
		}
	}
	for _, v := range []string{"", "alice", "http", "ftp://x", "URN:X"} {
		if IsRefValue(v) {
			t.Fatalf("IsRefValue(%q) = true", v)
		}
	}
}

func TestProfilerSkipRefValues(t *testing.T) {
	d := entity.NewDescription("").
		Add("name", "alice").
		Add("knows", "http://kb/bob").
		Add("id", "urn:x:9")
	with := &Profiler{SkipRefValues: true}
	without := &Profiler{}
	if got := with.Tokens(d); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Fatalf("ref-skipping tokens = %v", got)
	}
	if len(without.Tokens(d)) <= 1 {
		t.Fatal("default profiler should tokenize reference values")
	}
}
