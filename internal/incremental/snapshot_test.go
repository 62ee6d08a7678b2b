package incremental_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/metablocking"
	"entityres/internal/wal"
)

// metaDurableConfig is a durable Dirty resolver under live CBS/WEP
// meta-blocking.
func metaDurableConfig(rebase int) incremental.Config {
	cfg := durableConfig()
	cfg.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
	cfg.Durable.SnapshotEvery = -1
	cfg.Durable.RebaseEvery = rebase
	return cfg
}

// seedMetaDir builds a durable meta directory whose snapshot chain holds an
// anchor plus delta links (or only anchors with rebase < 0): inserts,
// reconciles, an update and a delete, each step checkpointed. Slot 2 ends
// dead. It returns the snapshot files, oldest first.
func seedMetaDir(t testing.TB, dir string, cfg incremental.Config) []string {
	t.Helper()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"bob jones", "bob jones london", "alice smith", "alice smith paris", "bob smith"}
	for i, n := range names {
		if _, err := r.Insert(ctx, desc(fmt.Sprintf("u:%d", i), n)); err != nil {
			t.Fatal(err)
		}
	}
	steps := []func() error{
		func() error { return r.Flush(ctx) },
		func() error {
			return r.Update(ctx, 1, []entity.Attribute{{Name: "name", Value: "bob jones paris"}})
		},
		func() error { return r.Delete(ctx, 2) },
		func() error { return r.Flush(ctx) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if err := r.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshot files = %v (%v)", snaps, err)
	}
	return snaps
}

// rewriteLink decodes a snapshot link, lets edit change it and writes it
// back in place, correctly framed.
func rewriteLink(t *testing.T, path string, edit func(link map[string]any)) {
	t.Helper()
	payload, err := wal.ReadFileFramed(path)
	if err != nil {
		t.Fatal(err)
	}
	var link map[string]any
	if err := json.Unmarshal(payload, &link); err != nil {
		t.Fatal(err)
	}
	edit(link)
	out, err := json.Marshal(link)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteFileAtomic(path, out); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNamingDeadHandlesRefused: a framed anchor whose weighted
// statistics or kept pairs name handles the chain never made live and
// indexed must fail at open. Accepting it would hand the first reconcile a
// candidate pair with no description behind it — a nil dereference in the
// matcher while the resolver's lock is held.
func TestSnapshotNamingDeadHandlesRefused(t *testing.T) {
	cases := map[string]func(link map[string]any){
		"weighted pair beyond the collection": func(link map[string]any) {
			w := link["weighted"].(map[string]any)
			w["pairs"] = append(w["pairs"].([]any), map[string]any{"a": 500, "b": 900, "cbs": 7})
			w["blocks_per"] = append(w["blocks_per"].([]any),
				map[string]any{"id": 500, "count": 7}, map[string]any{"id": 900, "count": 7})
			link["meta_dirty"] = true
		},
		"weighted node on a deleted slot": func(link map[string]any) {
			w := link["weighted"].(map[string]any)
			entries := append(w["blocks_per"].([]any), map[string]any{"id": 2.0, "count": 1.0})
			sort.Slice(entries, func(i, j int) bool {
				return entries[i].(map[string]any)["id"].(float64) < entries[j].(map[string]any)["id"].(float64)
			})
			w["blocks_per"] = entries
		},
		"kept pair on a deleted slot": func(link map[string]any) {
			link["kept"] = []any{map[string]any{"a": 0, "b": 2, "kept": true, "w": 1}}
		},
		"pair sharing more blocks than an endpoint": func(link map[string]any) {
			w := link["weighted"].(map[string]any)
			p := w["pairs"].([]any)[0].(map[string]any)
			p["cbs"] = 1000
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := metaDurableConfig(-1)
			snaps := seedMetaDir(t, dir, cfg)
			// The untouched anchor opens and reads cleanly.
			r, err := incremental.OpenResolver(dir, cfg)
			if err != nil {
				t.Fatalf("pristine anchor refused: %v", err)
			}
			if _, err := r.Stats(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			rewriteLink(t, snaps[len(snaps)-1], edit)
			r, err = incremental.OpenResolver(dir, cfg)
			if err == nil {
				r.Close()
				t.Fatalf("open accepted a snapshot whose %s", name)
			}
		})
	}
}

// TestOldSnapshotFormatRefused: a chain holding a full snapshot in the
// retired format 1 layout — as the tip, or as the anchor a newer link
// names — fails at open with ErrSnapshotFormat, never with a panic or an
// empty resolver.
func TestOldSnapshotFormatRefused(t *testing.T) {
	cfg := durableConfig()
	oldFull := []byte(fmt.Sprintf(`{"format":1,"kind":0,"blocker":%q,"matcher":%q,`+
		`"slots":[{"live":true,"uri":"u:a","attrs":[{"name":"name","value":"bob"}],"keys":["bob"]}],`+
		`"stats":{"inserts":1,"updates":0,"deletes":0,"comparisons":0}}`,
		cfg.Blocker.Name(), cfg.Matcher.Name()))
	t.Run("tip", func(t *testing.T) {
		dir := t.TempDir()
		if err := wal.WriteFileAtomic(filepath.Join(dir, "snapshot-0000000000000001.snap"), oldFull); err != nil {
			t.Fatal(err)
		}
		_, err := incremental.OpenResolver(dir, cfg)
		if !errors.Is(err, incremental.ErrSnapshotFormat) {
			t.Fatalf("open of a format-1 directory: %v, want ErrSnapshotFormat", err)
		}
	})
	t.Run("anchor", func(t *testing.T) {
		dir := t.TempDir()
		if err := wal.WriteFileAtomic(filepath.Join(dir, "snapshot-0000000000000001.snap"), oldFull); err != nil {
			t.Fatal(err)
		}
		link := fmt.Sprintf(`{"format":2,"parent":1,"kind":0,"blocker":%q,"matcher":%q,"slot_count":1,`+
			`"stats":{"inserts":1,"updates":0,"deletes":0,"comparisons":0}}`, cfg.Blocker.Name(), cfg.Matcher.Name())
		if err := wal.WriteFileAtomic(filepath.Join(dir, "snapshot-0000000000000002.snap"), []byte(link)); err != nil {
			t.Fatal(err)
		}
		_, err := incremental.OpenResolver(dir, cfg)
		if !errors.Is(err, incremental.ErrSnapshotFormat) {
			t.Fatalf("open of a chain anchored on format 1: %v, want ErrSnapshotFormat", err)
		}
		if !strings.Contains(err.Error(), "format 1") {
			t.Fatalf("error does not name the refused format: %v", err)
		}
	})
}

// FuzzSnapshotLink writes arbitrary bytes, correctly framed, as the tip
// link of a seeded durable meta directory. Contract: OpenResolver returns
// an error, or a resolver whose Stats and Clusters return without
// panicking.
func FuzzSnapshotLink(f *testing.F) {
	seedDir := f.TempDir()
	cfg := metaDurableConfig(0)
	snaps := seedMetaDir(f, seedDir, cfg)
	if len(snaps) < 2 {
		f.Fatalf("seed directory holds %d snapshots, want an anchor plus links", len(snaps))
	}
	for _, s := range snaps {
		payload, err := wal.ReadFileFramed(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	tip := filepath.Base(snaps[len(snaps)-1])
	files, err := os.ReadDir(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, link []byte) {
		dir := t.TempDir()
		for _, fi := range files {
			b, err := os.ReadFile(filepath.Join(seedDir, fi.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fi.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := wal.WriteFileAtomic(filepath.Join(dir, tip), link); err != nil {
			t.Fatal(err)
		}
		r, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			return
		}
		defer r.Close()
		r.Stats()
		r.Clusters()
	})
}

// TestBootstrapCodecRoundTrip: a shipped shard state survives the
// bootstrap encoding unchanged, and a blob whose slots are not listed in
// handle order, or whose edges are not canonical pairs, is refused.
func TestBootstrapCodecRoundTrip(t *testing.T) {
	bs := incremental.BootstrapState{
		Slots: []incremental.BootstrapSlot{
			{Live: true, URI: "u:a", Attrs: []entity.Attribute{{Name: "name", Value: "bob"}}, Keys: []string{"bob"}},
			{},
			{Live: true, URI: "u:c", Source: 1, Attrs: []entity.Attribute{{Name: "name", Value: "bob jones"}}, Keys: []string{"bob", "jones"}},
		},
		Edges:   []graph.Edge{{A: 0, B: 2, Weight: 1}},
		Inserts: 3, Updates: 1, Deletes: 1, Comparisons: 7,
		Seq: 5, MetaDirty: true,
	}
	payload, err := incremental.EncodeBootstrap(bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := incremental.DecodeBootstrap(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bs) {
		t.Fatalf("bootstrap round trip:\ngot  %+v\nwant %+v", got, bs)
	}
	for name, bad := range map[string]string{
		"misnumbered slot": strings.Replace(string(payload), `"id":1`, `"id":7`, 1),
		"reversed edge":    strings.Replace(string(payload), `"a":0,"b":2`, `"a":2,"b":0`, 1),
	} {
		if bad == string(payload) {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := incremental.DecodeBootstrap([]byte(bad)); err == nil {
			t.Fatalf("decoded a bootstrap blob with a %s", name)
		}
	}
}

// TestChainKillingMatchedSlotRefused: each link checks its own match
// entries, so a delta link that kills a slot its anchor matched — without
// retiring the match — is only visible once the whole chain has applied.
// Open must refuse it rather than serve a match on a dead handle.
func TestChainKillingMatchedSlotRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.Durable.SnapshotEvery = -1
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, n := range []string{"bob jones", "bob jones", "alice smith"} {
		if _, err := r.Insert(ctx, desc(fmt.Sprintf("u:%d", i), n)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := r.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := mustMatches(t, r); m.Len() != 1 {
		t.Fatalf("scenario has %d matches, want the one (0,1)", m.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("snapshot files = %v (%v), want an anchor plus a delta", snaps, err)
	}
	rewriteLink(t, snaps[len(snaps)-1], func(link map[string]any) {
		if link["parent"].(float64) == 0 {
			t.Fatal("tip is an anchor, want a delta link")
		}
		link["slots"] = append([]any{map[string]any{"id": 1}}, link["slots"].([]any)...)
	})
	if _, err := incremental.OpenResolver(dir, cfg); err == nil || !strings.Contains(err.Error(), "dead slot") {
		t.Fatalf("open of a chain that kills a matched slot: %v, want a dead-slot refusal", err)
	}
}
