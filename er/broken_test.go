package er_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"entityres/er"
	"entityres/internal/incremental"
	"entityres/internal/wal"
)

// The re-exported sentinel must be the same value callers see from the
// streaming layer, so errors.Is works no matter which package produced
// the error.
func TestErrBrokenIdentity(t *testing.T) {
	if !errors.Is(er.ErrBroken, incremental.ErrBroken) {
		t.Fatal("er.ErrBroken does not match incremental.ErrBroken")
	}
	wrapped := errors.Join(errors.New("context"), incremental.ErrBroken)
	if !errors.Is(wrapped, er.ErrBroken) {
		t.Fatal("wrapped incremental.ErrBroken not matched by er.ErrBroken")
	}
}

// TestOpenRefusesOldSnapshotFormat: a durable directory whose snapshot is
// in the retired format 1 layout fails er.Open with ErrSnapshotFormat —
// single-node and per shard — instead of opening an empty resolver.
func TestOpenRefusesOldSnapshotFormat(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := v2Config()
			cfg.Dir = t.TempDir()
			cfg.Durable = er.StreamingDurable{NoSync: true}
			cfg.Shards = shards
			r, err := er.Open(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			pattern := filepath.Join(cfg.Dir, "snapshot-*.snap")
			if shards > 1 {
				pattern = filepath.Join(cfg.Dir, "shard-*", "snapshot-*.snap")
			}
			snaps, err := filepath.Glob(pattern)
			if err != nil || len(snaps) != shards {
				t.Fatalf("snapshot files = %v (%v)", snaps, err)
			}
			old := []byte(`{"format":1,"kind":0,"slots":[{"live":true,"uri":"u:a"}],"stats":{"inserts":1}}`)
			if err := wal.WriteFileAtomic(snaps[0], old); err != nil {
				t.Fatal(err)
			}
			_, err = er.Open(ctx, cfg)
			if !errors.Is(err, er.ErrSnapshotFormat) || !errors.Is(err, incremental.ErrSnapshotFormat) {
				t.Fatalf("Open of a format-1 directory: %v, want ErrSnapshotFormat", err)
			}
		})
	}
}
