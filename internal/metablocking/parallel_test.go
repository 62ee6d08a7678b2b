package metablocking

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
)

func parallelGraphFixture(t testing.TB) *blocking.Blocks {
	t.Helper()
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestBuildGraphParallelMatchesSequential: every scheme must be
// bit-identical for any worker count.
func TestBuildGraphParallelMatchesSequential(t *testing.T) {
	bs := parallelGraphFixture(t)
	for _, scheme := range WeightSchemes() {
		want := BuildGraph(bs, scheme)
		for _, workers := range []int{0, 1, 2, 4, 7} {
			got := BuildGraphParallel(bs, scheme, workers)
			we, ge := want.Edges(), got.Edges()
			if len(we) != len(ge) {
				t.Fatalf("%s workers=%d: %d edges, want %d", scheme, workers, len(ge), len(we))
			}
			for i := range we {
				if we[i].A != ge[i].A || we[i].B != ge[i].B {
					t.Fatalf("%s workers=%d: edge %d is {%d,%d}, want {%d,%d}",
						scheme, workers, i, ge[i].A, ge[i].B, we[i].A, we[i].B)
				}
				if we[i].Weight != ge[i].Weight {
					t.Fatalf("%s workers=%d: edge %d weight %g, want %g (must be bit-identical)",
						scheme, workers, i, ge[i].Weight, we[i].Weight)
				}
			}
		}
	}
}

// TestRestructureParallelMatchesSequential: full meta-blocking parity over
// every weight and pruning scheme.
func TestRestructureParallelMatchesSequential(t *testing.T) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, weight := range WeightSchemes() {
		for _, prune := range PruneSchemes() {
			m := &MetaBlocker{Weight: weight, Prune: prune}
			want := m.Restructure(c, bs)
			got := m.RestructureParallel(c, bs, 4)
			if want.Len() != got.Len() {
				t.Fatalf("%s: %d blocks, want %d", m.Name(), got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if want.Get(i).Key != got.Get(i).Key {
					t.Fatalf("%s: block %d key %q, want %q", m.Name(), i, got.Get(i).Key, want.Get(i).Key)
				}
			}
		}
	}
}
