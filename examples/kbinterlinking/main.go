// KB interlinking: clean-clean resolution across two synthetic movie KBs
// with proprietary schemas (the periphery-of-the-LOD-cloud scenario the
// paper motivates). Compares schema-aware standard blocking — which
// collapses under schema heterogeneity — against schema-agnostic token
// blocking and attribute-clustering blocking, then runs the full pipeline
// on the best collection and reports linkage quality.
//
// Run with: go run ./examples/kbinterlinking
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"entityres/er"
)

func main() {
	heavy := er.HeavyCorruption()
	c, gt, err := er.GenerateCleanClean(er.GenConfig{
		Seed:        7,
		Entities:    400,
		DupRatio:    0.6,
		Domain:      er.Movies,
		SchemaNoise: 0.9, // KB1 renames most attributes
		Corruption:  &heavy,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KB0: %d movies, KB1: %d movies, true links: %d\n\n",
		c.SourceLen(0), c.SourceLen(1), gt.Len())

	blockers := []er.Blocker{
		&er.StandardBlocking{},
		&er.TokenBlocking{},
		&er.AttributeClustering{},
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "blocking\tPC\tPQ\tRR\tcomparisons")
	for _, b := range blockers {
		bs, err := b.Block(c)
		if err != nil {
			log.Fatal(err)
		}
		m := er.EvaluateBlocking(c, bs, gt)
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.3f\t%d\n", b.Name(), m.PC, m.PQ, m.RR, m.Distinct)
	}
	tw.Flush()

	pipe := &er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.AutoPurge{}, &er.BlockFiltering{Ratio: 0.8}},
		Meta:       &er.MetaBlocker{Weight: er.ARCS, Prune: er.WNP},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.35},
	}
	res, err := pipe.Run(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}
	prf := er.ComparePairs(res.Matches, gt)
	fmt.Printf("\nfull pipeline: %d comparisons (exhaustive %d)\n",
		res.Comparisons, c.TotalComparisons())
	fmt.Printf("linkage quality: %v\n", prf)
}
