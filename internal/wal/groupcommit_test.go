package wal_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"entityres/internal/wal"
)

// collectRecords reopens dir and replays every record into a set.
func collectRecords(t *testing.T, dir string) map[string]int {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := map[string]int{}
	if _, err := l.Replay(0, func(p []byte) error {
		got[string(p)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// hammer appends goroutines*perG distinct records concurrently and returns
// the expected record set.
func hammer(t *testing.T, l *wal.Log, goroutines, perG int) map[string]int {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%02d-r%04d", g, i))); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", g, err)
		}
	}
	want := map[string]int{}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			want[fmt.Sprintf("g%02d-r%04d", g, i)] = 1
		}
	}
	return want
}

// TestGroupCommitDurability is the group-commit regression test: every
// record a concurrent appender was acknowledged for must survive reopen —
// durability >= the per-append fsync policy — while the append path issues
// no more syncs than appends (and, under contention, strictly fewer; the
// deterministic batching assertion lives in TestGroupCommitBatches).
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 40
	want := hammer(t, l, goroutines, perG)
	appends := uint64(goroutines * perG)
	if s := l.Syncs(); s > appends {
		t.Fatalf("group commit issued %d syncs for %d appends (more than per-op fsync)", s, appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collectRecords(t, dir)
	if len(got) != len(want) {
		t.Fatalf("reopen found %d distinct records, want %d", len(got), len(want))
	}
	for rec, n := range want {
		if got[rec] != n {
			t.Fatalf("record %q appears %d times after reopen, want %d", rec, got[rec], n)
		}
	}
}

// TestGroupCommitBatches slows the fsync through the test hook so
// concurrent appenders deterministically pile into batches, and asserts
// that one sync covered many appends.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSyncFn(func(f *os.File) error {
		time.Sleep(2 * time.Millisecond)
		return f.Sync()
	})
	const goroutines, perG = 8, 25
	want := hammer(t, l, goroutines, perG)
	appends := uint64(goroutines * perG)
	syncs := l.Syncs()
	if syncs >= appends {
		t.Fatalf("slowed group commit issued %d syncs for %d appends — no batching happened", syncs, appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectRecords(t, dir); len(got) != len(want) {
		t.Fatalf("reopen found %d distinct records, want %d", len(got), len(want))
	}
	t.Logf("group commit: %d appends, %d syncs (%.1f appends/sync)", appends, syncs, float64(appends)/float64(syncs))
}

// TestGroupCommitSingleAppender checks the degenerate batch: a lone
// appender still gets one durable sync per append and its records survive.
func TestGroupCommitSingleAppender(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("solo-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Syncs(); s == 0 || s > 10 {
		t.Fatalf("lone appender issued %d syncs for 10 appends", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectRecords(t, dir); len(got) != 10 {
		t.Fatalf("reopen found %d records, want 10", len(got))
	}
}

// TestGroupCommitSyncFailure: when a group sync fails, the affected
// appenders get the error (their records were never acknowledged as
// durable) and the log seals rather than appending after maybe-lost bytes.
func TestGroupCommitSyncFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	l.SetSyncFn(func(*os.File) error { return fmt.Errorf("disk gone") })
	if _, err := l.Append([]byte("lost")); err == nil {
		t.Fatal("append whose group sync failed was acknowledged")
	}
	l.SetSyncFn(nil)
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("append after a failed group sync succeeded on a sealed log")
	}
	l.Close()
	// The pre-failure record is still replayable, and the failed record
	// must NOT be: its frame was truncated back out before sealing, so
	// recovery can never replay an operation its caller was told failed.
	got := collectRecords(t, dir)
	if got["before"] != 1 {
		t.Fatalf("durable pre-failure record missing after reopen: %v", got)
	}
	if got["lost"] != 0 {
		t.Fatalf("unacknowledged record survived the failed group sync: %v", got)
	}
	if got["after"] != 0 {
		t.Fatalf("record appended after seal reached the log: %v", got)
	}
}

// BenchmarkAppendGroupCommit measures parallel appenders contending on
// one log, their fsyncs batched into group syncs.
func BenchmarkAppendGroupCommit(b *testing.B) {
	l, err := wal.Open(b.TempDir(), wal.Options{SegmentBytes: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte("benchmark-record-of-plausible-journal-size-0123456789")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(l.Syncs()), "syncs")
}

// TestGroupCommitRotation: rotation under group commit seals (and thereby
// syncs) the outgoing segment and advances the group coverage, so every
// record around segment boundaries is acknowledged durable and replayable.
func TestGroupCommitRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rotating-record-%02d-padded-to-force-boundaries", i))); err != nil {
			t.Fatal(err)
		}
	}
	if seq, err := l.Rotate(); err != nil || seq < 2 {
		t.Fatalf("explicit rotate: seq=%d err=%v", seq, err)
	}
	if len(l.Segments()) < 3 {
		t.Fatalf("only %d segments after 24 oversized appends", len(l.Segments()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectRecords(t, dir); len(got) != 24 {
		t.Fatalf("reopen found %d records, want 24", len(got))
	}
}
