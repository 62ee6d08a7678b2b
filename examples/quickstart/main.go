// Quickstart: resolve a handful of heterogeneous entity descriptions
// end-to-end — token blocking, meta-blocking, matching — and print the
// discovered entity clusters.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"entityres/er"
)

func main() {
	// A dirty collection: the same people described with different
	// schemas, as in the Web of data.
	c := er.NewCollection(er.Dirty)
	c.MustAdd(er.NewDescription("http://kb1/alan").
		Add("name", "Alan Turing").
		Add("field", "computer science logic"))
	c.MustAdd(er.NewDescription("http://kb2/a_turing").
		Add("label", "A. Turing").
		Add("knownFor", "computer science enigma"))
	c.MustAdd(er.NewDescription("http://kb1/ada").
		Add("name", "Ada Lovelace").
		Add("field", "mathematics computing"))
	c.MustAdd(er.NewDescription("http://kb3/lovelace").
		Add("title", "Ada Lovelace").
		Add("occupation", "mathematician"))
	c.MustAdd(er.NewDescription("http://kb1/grace").
		Add("name", "Grace Hopper").
		Add("field", "compilers"))

	// The framework of Fig. 1: Blocking → planning → Matching.
	pipe := &er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.AutoPurge{}},
		Meta:       &er.MetaBlocker{Weight: er.ARCS, Prune: er.WNP},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.25},
	}
	res, err := pipe.Run(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("blocks: %d, comparisons executed: %d (exhaustive would be %d)\n",
		res.Blocks.Len(), res.Comparisons, c.TotalComparisons())
	for i, cluster := range res.Clusters() {
		fmt.Printf("entity %d:\n", i+1)
		for _, id := range cluster {
			fmt.Printf("  %s\n", c.Get(id).URI)
		}
	}
	for _, ph := range res.Phases {
		fmt.Printf("phase %-14s %v\n", ph.Name, ph.Duration.Round(1000))
	}
}
