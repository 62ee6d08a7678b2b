package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"entityres/er"
	"entityres/internal/tabular"
)

// corpus is one generated clean-clean People corpus: each source's records
// in generation order and the ground truth as (KB0 URI, KB1 URI) pairs.
type corpus struct {
	cfg     er.GenConfig
	sources [2][]er.GenRecord
	truth   [][2]string
}

// genCorpus generates the corpus every workload draws from: the clean-clean
// People generator with the corruption settings of erbench -ingest, whose
// vocabulary grows with the entity count so block density stays the same
// at every scale.
func genCorpus(seed int64, entities int) (*corpus, error) {
	light := er.LightCorruption()
	cfg := er.GenConfig{
		Seed:        seed,
		Entities:    entities,
		DupRatio:    0.5,
		SchemaNoise: 0.5,
		VocabScale:  max(1, entities/2000),
		Domain:      er.People,
		Corruption:  &light,
	}
	stream, err := er.StreamCleanClean(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	cp := &corpus{cfg: cfg}
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		cp.sources[rec.Source] = append(cp.sources[rec.Source], rec)
		if rec.MatchOf != "" {
			cp.truth = append(cp.truth, [2]string{rec.MatchOf, rec.URI})
		}
	}
	return cp, nil
}

// records is the corpus size over both sources.
func (cp *corpus) records() int { return len(cp.sources[0]) + len(cp.sources[1]) }

// split divides each source at the given share: the heads are written to
// CSV files (one per source, returned as er.Sources) and the tails are
// returned as insert operations, KB0's tail first.
func (cp *corpus) split(dir string, share float64) ([]er.Source, []er.StreamOp, error) {
	var srcs []er.Source
	var rest []er.StreamOp
	for s, recs := range cp.sources {
		n := int(float64(len(recs)) * share)
		path := filepath.Join(dir, fmt.Sprintf("kb%d.csv", s))
		if err := cp.writeCSV(path, s, recs[:n]); err != nil {
			return nil, nil, err
		}
		srcs = append(srcs, er.Source{Path: path, Index: s})
		for _, rec := range recs[n:] {
			rest = append(rest, er.StreamOp{Kind: er.StreamInsert, URI: rec.URI, Source: s, Attrs: rec.Attrs})
		}
	}
	return srcs, rest, nil
}

// writeCSV renders one source's records under the generator's column set.
func (cp *corpus) writeCSV(path string, source int, recs []er.GenRecord) error {
	columns, err := er.GenColumns(cp.cfg, source == 1)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	cw, err := tabular.NewCSVWriter(bw, columns, tabular.Options{})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := cw.Write(&er.Description{URI: rec.URI, Attrs: rec.Attrs}); err != nil {
			return err
		}
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
