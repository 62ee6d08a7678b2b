// The -ingest benchmark: one streamed generator pass fans a clean-clean
// corpus into N-Triples, CSV and JSON-lines files, then each format is
// parsed and resolved end-to-end through the same batch pipeline. The
// three formats must produce bit-identical matches, comparison counts and
// restructured blocks (asserted via canonical sha256 digests); the
// reported difference between them is purely parse cost. The full run is
// a million-record corpus; -short shrinks it to the CI regression scale.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"entityres/er"
	"entityres/internal/rdf"
	"entityres/internal/tabular"
)

// Scenario constants. Entities scale with VocabScale so per-token block
// density — and therefore the purge decision and the match quality — is
// the same at every scale; the purge budget is part of the scenario
// identity recorded in the payload.
const (
	ingestEntitiesFull  = 680_000 // ~1.02M records at DupRatio 0.5
	ingestEntitiesShort = 1_334   // ~2k records, the CI gate scale
	ingestPurgeMax      = 2000    // per-block comparison budget
)

// benchIngestPortableJSON identifies the -ingest scenario and carries the
// machine-independent results. Every field is identical across the three
// formats by assertion, so they appear once.
type benchIngestPortableJSON struct {
	Records     int     `json:"records"`
	Entities    int     `json:"entities"`
	Seed        int64   `json:"seed"`
	VocabScale  int     `json:"vocab_scale"`
	PurgeMax    int     `json:"purge_max"`
	TruthPairs  int     `json:"truth_pairs"`
	Blocks      int     `json:"blocks"`
	Comparisons int64   `json:"comparisons"`
	Matches     int     `json:"matches"`
	Identical   bool    `json:"identical"`
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	F1          float64 `json:"f1"`
	MatchDigest string  `json:"match_digest"`
	BlockDigest string  `json:"block_digest"`
}

// benchIngestLegTimingJSON is one format's wall-clock cost: streamed
// parse (count-only, flat memory), collection load, and pipeline resolve.
type benchIngestLegTimingJSON struct {
	Parse   benchTimingJSON `json:"parse"`
	Load    benchTimingJSON `json:"load"`
	Resolve benchTimingJSON `json:"resolve"`
}

// benchIngestTimingJSON is the -ingest wall-clock section.
type benchIngestTimingJSON struct {
	Workers            int                      `json:"workers"`
	GenerateWallNS     int64                    `json:"generate_wall_ns"`
	NT                 benchIngestLegTimingJSON `json:"nt"`
	CSV                benchIngestLegTimingJSON `json:"csv"`
	JSONL              benchIngestLegTimingJSON `json:"jsonl"`
	ParseLiveHeapBytes uint64                   `json:"parse_live_heap_bytes"`
	PeakHeapBytes      uint64                   `json:"peak_heap_bytes"`
}

type benchIngestJSON struct {
	Schema   int                     `json:"schema"`
	Name     string                  `json:"name"`
	Portable benchIngestPortableJSON `json:"portable"`
	Timing   benchIngestTimingJSON   `json:"timing"`
}

// ingestResolved is one format's resolve-leg outcome, compared across
// formats for bit-equality.
type ingestResolved struct {
	comparisons int64
	matches     int
	blocks      int
	matchDigest string
	blockDigest string
	prf         er.PRF
}

func runIngestBench(short bool, seed int64, workers int, out benchOutput) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entities := ingestEntitiesFull
	if short {
		entities = ingestEntitiesShort
	}
	vocabScale := entities / 2000
	if vocabScale < 1 {
		vocabScale = 1
	}
	light := er.LightCorruption()
	cfg := er.GenConfig{
		Seed:        seed,
		Entities:    entities,
		DupRatio:    0.5,
		SchemaNoise: 0.5,
		VocabScale:  vocabScale,
		Domain:      er.People,
		Corruption:  &light,
	}
	dir, err := os.MkdirTemp("", "erbench-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	peak := trackHeapPeak()
	defer peak.stopTracking()

	t0 := time.Now()
	records, truthPairs, err := writeIngestCorpus(dir, cfg)
	if err != nil {
		return err
	}
	genWall := time.Since(t0)
	if !short && records < 1_000_000 {
		return fmt.Errorf("full ingest scenario produced %d records, want >= 1000000 — raise ingestEntitiesFull", records)
	}
	fmt.Printf("ingest bench: %d records over 2 sources (%d entities, dup %.2f), seed %d, vocab scale %d, purge max %d\n",
		records, entities, cfg.DupRatio, seed, vocabScale, ingestPurgeMax)
	fmt.Printf("generate (nt+csv+jsonl + truth, one streamed pass): %v\n\n", genWall.Round(time.Millisecond))

	formats := []string{"nt", "csv", "jsonl"}
	sources := func(format string) []er.Source {
		return []er.Source{
			{Path: filepath.Join(dir, "kb0."+format)},
			{Path: filepath.Join(dir, "kb1."+format), Index: 1},
		}
	}

	// Parse leg: stream every format through the source reader without
	// retaining records — parse throughput alone, memory flat in the
	// corpus size.
	legs := map[string]*benchIngestLegTimingJSON{}
	for _, f := range formats {
		legs[f] = &benchIngestLegTimingJSON{}
		t0 := time.Now()
		n, err := er.SourceRecords(sources(f))
		if err != nil {
			return fmt.Errorf("%s parse: %w", f, err)
		}
		if n != records {
			return fmt.Errorf("%s parse saw %d records, generator wrote %d", f, n, records)
		}
		legs[f].Parse = timingOver(time.Since(t0), records)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	parseLiveHeap := ms.HeapAlloc

	// Resolve leg: load each format into a fresh collection and run the
	// identical batch pipeline; canonical digests prove the three formats
	// resolve bit-identically.
	resolved := map[string]*ingestResolved{}
	for _, f := range formats {
		r, err := resolveIngestFormat(dir, f, sources(f), legs[f], records, workers)
		if err != nil {
			return err
		}
		resolved[f] = r
		peak.sample()
	}
	for _, f := range formats[1:] {
		a, b := resolved[formats[0]], resolved[f]
		if a.matchDigest != b.matchDigest || a.blockDigest != b.blockDigest ||
			a.comparisons != b.comparisons || a.matches != b.matches || a.blocks != b.blocks {
			return fmt.Errorf("formats diverge: %s resolved (matches=%d comparisons=%d blocks=%d) but %s resolved (matches=%d comparisons=%d blocks=%d)",
				formats[0], a.matches, a.comparisons, a.blocks, f, b.matches, b.comparisons, b.blocks)
		}
	}
	ref := resolved[formats[0]]
	if ref.matches == 0 {
		return fmt.Errorf("resolve produced no matches — the scenario is vacuous")
	}
	peakHeap := peak.stopTracking()

	fmt.Printf("%-8s %14s %14s %14s %16s\n", "format", "parse", "load", "resolve", "parse rec/s")
	for _, f := range formats {
		l := legs[f]
		perSec := int64(0)
		if l.Parse.WallNS > 0 {
			perSec = int64(float64(records) / (float64(l.Parse.WallNS) / float64(time.Second)))
		}
		fmt.Printf("%-8s %14v %14v %14v %16d\n", f,
			time.Duration(l.Parse.WallNS).Round(time.Millisecond),
			time.Duration(l.Load.WallNS).Round(time.Millisecond),
			time.Duration(l.Resolve.WallNS).Round(time.Millisecond), perSec)
	}
	fmt.Printf("\nidentical=true matches=%d comparisons=%d blocks=%d truth=%d precision=%.3f recall=%.3f f1=%.3f\n",
		ref.matches, ref.comparisons, ref.blocks, truthPairs, ref.prf.Precision, ref.prf.Recall, ref.prf.F1)
	fmt.Printf("live heap after streamed parse: %.1f MiB, peak heap: %.1f MiB\n",
		float64(parseLiveHeap)/(1<<20), float64(peakHeap)/(1<<20))

	payload := benchIngestJSON{
		Schema: benchSchema,
		Name:   "ingest",
		Portable: benchIngestPortableJSON{
			Records:     records,
			Entities:    entities,
			Seed:        seed,
			VocabScale:  vocabScale,
			PurgeMax:    ingestPurgeMax,
			TruthPairs:  truthPairs,
			Blocks:      ref.blocks,
			Comparisons: ref.comparisons,
			Matches:     ref.matches,
			Identical:   true,
			Precision:   ref.prf.Precision,
			Recall:      ref.prf.Recall,
			F1:          ref.prf.F1,
			MatchDigest: ref.matchDigest,
			BlockDigest: ref.blockDigest,
		},
		Timing: benchIngestTimingJSON{
			Workers:            workers,
			GenerateWallNS:     genWall.Nanoseconds(),
			NT:                 *legs["nt"],
			CSV:                *legs["csv"],
			JSONL:              *legs["jsonl"],
			ParseLiveHeapBytes: parseLiveHeap,
			PeakHeapBytes:      peakHeap,
		},
	}
	return out.emit(payload)
}

// resolveIngestFormat loads one format's two source files into a fresh
// clean-clean collection, runs the shared batch pipeline over the given
// number of workers, and renders the canonical digests plus quality
// against the streamed truth file.
func resolveIngestFormat(dir, format string, srcs []er.Source, leg *benchIngestLegTimingJSON, records, workers int) (*ingestResolved, error) {
	c := er.NewCollection(er.CleanClean)
	t0 := time.Now()
	for _, s := range srcs {
		if err := er.ReadSource(c, s); err != nil {
			return nil, fmt.Errorf("%s load: %w", format, err)
		}
	}
	leg.Load = timingOver(time.Since(t0), records)
	if c.Len() != records {
		return nil, fmt.Errorf("%s load built %d descriptions, want %d", format, c.Len(), records)
	}

	pipe := er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.MaxComparisonsPurge{Max: ingestPurgeMax}},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers:    workers,
	}
	t0 = time.Now()
	res, err := pipe.Run(context.Background(), c)
	if err != nil {
		return nil, fmt.Errorf("%s resolve: %w", format, err)
	}
	leg.Resolve = timingOver(time.Since(t0), records)

	mh := sha256.New()
	if err := er.WriteTruthTSV(mh, c, res.Matches); err != nil {
		return nil, err
	}
	bh := sha256.New()
	uris := func(ids []er.ID) string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = c.Get(id).URI
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	lines := make([]string, 0, 1024)
	for _, b := range res.Blocks.All() {
		lines = append(lines, b.Key+"|"+uris(b.S0)+"|"+uris(b.S1))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(bh, l)
	}

	tf, err := os.Open(filepath.Join(dir, "truth.tsv"))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	truth, err := er.ReadTruthTSV(c, bufio.NewReader(tf))
	if err != nil {
		return nil, err
	}
	return &ingestResolved{
		comparisons: res.Comparisons,
		matches:     res.Matches.Len(),
		blocks:      res.Blocks.Len(),
		matchDigest: fmt.Sprintf("%x", mh.Sum(nil)),
		blockDigest: fmt.Sprintf("%x", bh.Sum(nil)),
		prf:         er.ComparePairs(res.Matches, truth),
	}, nil
}

// writeIngestCorpus streams one clean-clean generator pass into kb0/kb1
// in all three formats plus truth.tsv — the same fan-out kbgen performs,
// so memory stays flat in the corpus size and every format scores against
// the same ground truth.
func writeIngestCorpus(dir string, cfg er.GenConfig) (records, pairs int, err error) {
	stream, err := er.StreamCleanClean(cfg)
	if err != nil {
		return 0, 0, err
	}
	type sink struct {
		files []*os.File
		bufs  []*bufio.Writer
		nt    *bufio.Writer
		csv   *tabular.CSVWriter
		jsonl *bufio.Writer
	}
	sinks := make([]*sink, 2)
	defer func() {
		for _, sk := range sinks {
			if sk != nil {
				for _, f := range sk.files {
					f.Close()
				}
			}
		}
	}()
	for s := 0; s < 2; s++ {
		columns, cerr := er.GenColumns(cfg, s == 1)
		if cerr != nil {
			return 0, 0, cerr
		}
		sk := &sink{}
		for _, format := range []string{"nt", "csv", "jsonl"} {
			f, ferr := os.Create(filepath.Join(dir, fmt.Sprintf("kb%d.%s", s, format)))
			if ferr != nil {
				return 0, 0, ferr
			}
			sk.files = append(sk.files, f)
			bw := bufio.NewWriterSize(f, 1<<16)
			sk.bufs = append(sk.bufs, bw)
			switch format {
			case "nt":
				sk.nt = bw
			case "csv":
				if sk.csv, err = tabular.NewCSVWriter(bw, columns, tabular.Options{}); err != nil {
					return 0, 0, err
				}
			case "jsonl":
				sk.jsonl = bw
			}
		}
		sinks[s] = sk
	}
	tf, err := os.Create(filepath.Join(dir, "truth.tsv"))
	if err != nil {
		return 0, 0, err
	}
	defer tf.Close()
	tw := bufio.NewWriter(tf)

	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		records++
		d := &er.Description{URI: rec.URI, Attrs: rec.Attrs}
		sk := sinks[rec.Source]
		if err := rdf.WriteDescription(sk.nt, d); err != nil {
			return 0, 0, err
		}
		if err := sk.csv.Write(d); err != nil {
			return 0, 0, err
		}
		if err := tabular.WriteJSONLRecord(sk.jsonl, d, tabular.Options{}); err != nil {
			return 0, 0, err
		}
		if rec.MatchOf != "" {
			// Clean-clean pairs arrive with ascending KB0 partners: the
			// stream order is already the sorted truth order.
			if _, err := fmt.Fprintf(tw, "%s\t%s\n", rec.MatchOf, rec.URI); err != nil {
				return 0, 0, err
			}
			pairs++
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := tf.Close(); err != nil {
		return 0, 0, err
	}
	for _, sk := range sinks {
		if err := sk.csv.Flush(); err != nil {
			return 0, 0, err
		}
		for _, bw := range sk.bufs {
			if err := bw.Flush(); err != nil {
				return 0, 0, err
			}
		}
		for _, f := range sk.files {
			if err := f.Close(); err != nil {
				return 0, 0, err
			}
		}
		sk.files = nil
	}
	return records, pairs, nil
}

// timingOver renders a wall time as the shared timing shape, per-record.
func timingOver(wall time.Duration, records int) benchTimingJSON {
	t := benchTimingJSON{WallNS: wall.Nanoseconds()}
	if records > 0 {
		t.NSPerOp = t.WallNS / int64(records)
	}
	return t
}

// heapPeak samples the live heap on a coarse ticker (plus explicit
// sample() calls at leg boundaries) and keeps the maximum observed.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   chan struct{} // 1-slot token guarding max
	max  uint64
}

func trackHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), mu: make(chan struct{}, 1)}
	h.mu <- struct{}{}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	<-h.mu
	if ms.HeapAlloc > h.max {
		h.max = ms.HeapAlloc
	}
	h.mu <- struct{}{}
}

// stopTracking ends the sampler and returns the peak; safe to call twice.
func (h *heapPeak) stopTracking() uint64 {
	select {
	case <-h.done:
	default:
		close(h.stop)
		<-h.done
	}
	h.sample()
	<-h.mu
	m := h.max
	h.mu <- struct{}{}
	return m
}
