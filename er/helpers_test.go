package er_test

import (
	"context"
	"errors"
	"testing"

	"entityres/er"
)

// The error-returning read API (a poisoned journal surfaces as
// er.ErrBroken) makes every reconciling read two-valued on every resolver
// form; these helpers keep test bodies on the happy path.

func mustStats(t testing.TB, r interface {
	Stats() (er.StreamingStats, error)
}) er.StreamingStats {
	t.Helper()
	st, err := r.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st
}

// liveState reads a resolver's live descriptions and their matches
// through Query, visiting uris in order and skipping those not live. The
// descriptions come back renumbered densely in a collection of the given
// kind — the collection a batch run over the survivors would see — and the
// matches use that numbering.
func liveState(t testing.TB, r er.Resolver, kind er.Kind, uris []string) (*er.Collection, *er.Matches) {
	t.Helper()
	ctx := context.Background()
	c := er.NewCollection(kind)
	dense := map[er.ID]er.ID{}
	var found []er.Result
	for _, uri := range uris {
		res, err := r.Query(ctx, er.Query{URI: uri})
		var nf *er.ErrNotFound
		if errors.As(err, &nf) {
			continue
		}
		if err != nil {
			t.Fatalf("Query %s: %v", uri, err)
		}
		dense[res.ID] = c.MustAdd(res.Description)
		found = append(found, res)
	}
	m := er.NewMatches()
	for _, res := range found {
		for _, partner := range res.SameAs {
			p, ok := dense[partner]
			if !ok {
				t.Fatalf("handle %d matched to %d, which none of the listed URIs holds", res.ID, partner)
			}
			m.Add(dense[res.ID], p)
		}
	}
	return c, m
}

// uriList lists the URIs of a collection's descriptions in order.
func uriList(c *er.Collection) []string {
	out := make([]string, 0, c.Len())
	for _, d := range c.All() {
		out = append(out, d.URI)
	}
	return out
}

// sameMatches reports whether two match sets hold the same pairs.
func sameMatches(a, b *er.Matches) bool {
	same := a.Len() == b.Len()
	a.Each(func(p er.Pair) bool {
		same = same && b.Contains(p.A, p.B)
		return same
	})
	return same
}
