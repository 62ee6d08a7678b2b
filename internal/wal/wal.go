// Package wal implements the durable storage substrate of the streaming
// resolver: an append-only write-ahead log of CRC-framed records stored in
// size-rotated segment files, every append durable before it returns, with
// ordered replay and torn-tail recovery.
//
// Layout. A log directory holds numbered segment files ("wal-%016d.seg",
// sequence numbers ascending from 1). Appends go to the highest-numbered
// (active) segment; once it exceeds Options.SegmentBytes the log rotates to
// a fresh segment. Every record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// so replay can detect exactly where a crash tore the tail: a frame whose
// header or payload runs past end-of-file, whose length field is implausible,
// or whose checksum fails marks the end of the intact prefix. Open truncates
// the active segment back to that prefix (torn-tail repair); the same
// condition inside a sealed (non-active) segment is data corruption and
// surfaces as an error from Replay, because sealed segments are only ever
// written through whole, synced appends.
//
// Compaction support. Callers that checkpoint their state into snapshot
// files (see WriteFileAtomic) rotate first, write the snapshot named after
// the new active segment, and then drop the older segments with
// RemoveSegmentsBefore — recovery then replays only the records appended
// after the snapshot, bounding recovery cost by the tail of the stream
// rather than its lifetime.
//
// Group commit. Append is safe for concurrent use and the fsyncs of
// concurrent appenders are batched: each appender returns only after its
// record is durable, but one fsync can cover every record written before
// it, so durability does not serialize concurrent writers on disk latency.
// The first appender to need a sync becomes the leader, syncs everything
// written so far, and wakes the batch; appenders arriving during the sync
// form the next batch. A lone appender pays exactly one fsync per append.
// A failed fsync is never retried: the records it covered may be lost, so
// the log truncates back to its durable prefix and seals — every waiter
// and every later append fails (the "fsyncgate" rule: an fsync error is
// not a transient condition).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// headerBytes is the fixed frame header: payload length + CRC32-C.
	headerBytes = 8
	// MaxRecordBytes bounds a single record's payload. A length field above
	// it cannot be trusted (it would be read from a torn or corrupt frame)
	// and is treated as the end of the intact prefix.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 4 << 20

	segFormat = "wal-%016d.seg"
)

// castagnoli is the CRC32-C polynomial table — hardware-accelerated on
// modern CPUs and the conventional WAL checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log.
type Options struct {
	// SegmentBytes is the size threshold past which the active segment is
	// sealed and a new one started (default DefaultSegmentBytes). A record
	// always lands whole in one segment: rotation happens before the append.
	SegmentBytes int64
	// NoSync skips the fsync after each append. Throughput rises by orders
	// of magnitude, but records acknowledged since the last Sync may be lost
	// on a machine crash (a process crash loses nothing: writes are in the
	// page cache). Meant for tests, benchmarks and workloads that checkpoint
	// explicitly.
	NoSync bool
}

// Position addresses a byte offset within one segment — where a record
// begins, as reported by Append.
type Position struct {
	Segment uint64
	Offset  int64
}

// Log is an append-only segmented record log.
type Log struct {
	dir  string
	opts Options

	// mu guards the write-path state below and serializes concurrent
	// appenders' frame writes.
	mu   sync.Mutex
	f    *os.File
	lock *os.File // flock'd wal.lock guarding the directory
	seq  uint64   // active segment sequence
	size int64    // active segment byte size
	segs []uint64
	// writeGen numbers appended frames; gen g is durable once a sync that
	// observed writeGen >= g completes (or the frame landed in a segment
	// sealed by rotation, which syncs it).
	writeGen uint64
	// syncedSize is the prefix of the ACTIVE segment known durable — the
	// size a completed group sync observed (reset on rotation). When a
	// group sync fails, the segment is truncated back to it so recovery
	// can never replay a frame whose appender was told it failed.
	syncedSize int64
	// closedSynced marks a log sealed by a successful Close (which syncs
	// first): frames written before it ARE durable, so a group-sync leader
	// racing a concurrent Close must report its batch durable, not failed.
	closedSynced bool

	// Group-commit coordination: gmu guards the generations and the leader
	// flag, gcond wakes batches. groupErr, once set, marks records past
	// syncedGen as lost — the log seals and every waiter fails.
	gmu       sync.Mutex
	gcond     *sync.Cond
	syncedGen uint64
	syncing   bool
	groupErr  error

	// syncs counts the fsyncs the append path has issued — the measure the
	// group-commit regression tests compare against the append count.
	syncs atomic.Uint64
	// syncFn, when non-nil, replaces the file fsync (test hook: a slowed
	// sync forces deterministic batching).
	syncFn func(*os.File) error
}

// Open opens (creating if necessary) the log directory, repairs a torn tail
// left in the active segment by a crash, and positions the log for
// appending. Replay the existing records with Replay before appending new
// ones.
//
// The directory is guarded by an advisory flock on a "wal.lock" file: a
// second concurrent Open of the same directory fails loudly instead of the
// two writers truncating and interleaving each other's acknowledged
// records. The kernel releases the lock when the holding process exits, so
// a crash never wedges the directory.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, lock: lock, segs: segs}
	l.gcond = sync.NewCond(&l.gmu)
	fail := func(err error) (*Log, error) {
		lock.Close()
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return fail(err)
		}
		return l, nil
	}
	// Repair the active (highest) segment: truncate everything after the
	// last intact frame. Earlier segments were sealed by rotation and are
	// validated during Replay.
	active := segs[len(segs)-1]
	path := l.segmentPath(active)
	_, good, _, err := scanSegmentRecords(path, nil)
	if err != nil {
		return fail(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fail(fmt.Errorf("wal: %w", err))
	}
	if st.Size() > good {
		if err := truncateSync(f, good); err != nil {
			f.Close()
			return fail(err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fail(fmt.Errorf("wal: %w", err))
	}
	l.f, l.seq, l.size = f, active, good
	// Everything surviving the repair is on disk by construction.
	l.syncedSize = good
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// ActiveSegment returns the sequence number of the segment appends go to.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns the sequence numbers of the on-disk segments, ascending.
func (l *Log) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, len(l.segs))
	copy(out, l.segs)
	return out
}

// Append frames and durably appends one record, returning the position at
// which it begins (after any rotation). The payload is synced to disk
// before Append returns unless Options.NoSync is set; the sync may be a
// group sync another appender performed, covering this record among
// others.
func (l *Log) Append(payload []byte) (Position, error) {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return Position{}, fmt.Errorf("wal: log is closed")
	}
	if len(payload) > MaxRecordBytes {
		l.mu.Unlock()
		return Position{}, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordBytes)
	}
	frame := int64(headerBytes + len(payload))
	if l.size > 0 && l.size+frame > l.opts.SegmentBytes {
		if _, err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return Position{}, err
		}
	}
	pos := Position{Segment: l.seq, Offset: l.size}
	buf := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerBytes:], payload)
	// A failed append must never leave unacknowledged bytes behind: a
	// partial frame would poison the torn-tail scan for every later record,
	// and a whole frame whose error was reported to the caller would replay
	// as an operation that was never acknowledged (for inserts, wedging
	// recovery on a duplicate handle). Repair by truncating back to the
	// record's start; if even that fails the log seals itself — every
	// further operation errors rather than writing after garbage.
	if _, err := l.f.Write(buf); err != nil {
		l.repairOrSeal(pos.Offset)
		l.mu.Unlock()
		return Position{}, fmt.Errorf("wal: append: %w", err)
	}
	l.size += frame
	l.writeGen++
	gen := l.writeGen
	l.mu.Unlock()
	if l.opts.NoSync {
		return pos, nil
	}
	return pos, l.awaitDurable(gen)
}

// awaitDurable blocks until a sync covering write generation gen has
// completed, electing this appender as the group leader when no sync is in
// flight. The leader syncs everything written so far in one fsync and
// wakes the whole batch; appenders that arrive while it runs form the next
// batch. A failed group sync loses every record past the last completed
// sync, so the log seals and all affected waiters fail.
func (l *Log) awaitDurable(gen uint64) error {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	for {
		if l.syncedGen >= gen {
			return nil
		}
		if l.groupErr != nil {
			return l.groupErr
		}
		if l.syncing {
			l.gcond.Wait()
			continue
		}
		l.syncing = true
		l.gmu.Unlock()

		// Capture the active file, its size and the covered generation
		// under the write lock, but run the fsync OUTSIDE it, so the next
		// batch's appenders keep writing their frames while this one syncs
		// — that overlap is where group commit's throughput comes from.
		l.mu.Lock()
		top := l.writeGen
		f, seq, size := l.f, l.seq, l.size
		sealedDurable := l.closedSynced
		l.mu.Unlock()
		var err error
		if f == nil {
			if !sealedDurable {
				err = fmt.Errorf("wal: log is closed")
			}
			// A concurrent Close sealed the log AFTER syncing it, so every
			// frame written before the seal — the whole batch — is durable.
		} else if err = l.doSync(f); err != nil {
			l.mu.Lock()
			if l.seq != seq || (errors.Is(err, os.ErrClosed) && l.closedSynced) {
				// The captured segment was sealed under us — by a rotation
				// (which always syncs before closing) or by a Close whose
				// sync succeeded — so every byte in it, the whole batch,
				// is already durable. A Close whose sync FAILED leaves
				// closedSynced unset and the batch is reported failed.
				err = nil
			} else {
				// The batch's unsynced frames may or may not have reached
				// disk, and their appenders are about to be told they
				// failed: truncate the active segment back to the durable
				// prefix so recovery can never replay an unacknowledged
				// record, then seal the log.
				if l.f != nil {
					l.f.Truncate(l.syncedSize)
					l.f.Sync()
					l.f.Close()
					l.f = nil
					l.size = l.syncedSize
				}
				err = fmt.Errorf("wal: group sync: %w", err)
			}
			l.mu.Unlock()
		}
		if err == nil {
			l.mu.Lock()
			if l.seq == seq && l.syncedSize < size {
				l.syncedSize = size
			}
			l.mu.Unlock()
		}

		l.gmu.Lock()
		l.syncing = false
		if err != nil {
			l.groupErr = err
		} else if l.syncedGen < top {
			// Never regress: a rotation racing this sync may already have
			// advanced the coverage past top (it seals and syncs frames
			// this leader never saw).
			l.syncedGen = top
		}
		l.gcond.Broadcast()
	}
}

// doSync flushes f through the configured sync function, counting the
// append-path fsync.
func (l *Log) doSync(f *os.File) error {
	l.syncs.Add(1)
	if l.syncFn != nil {
		return l.syncFn(f)
	}
	return f.Sync()
}

// Syncs returns how many fsyncs the append path has issued so far — the
// number of group syncs, which concurrent appenders keep well below the
// append count.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// repairOrSeal drops everything past off from the active segment after a
// failed append; when the repair itself fails the log is sealed (l.f nil),
// so subsequent operations fail loudly instead of appending after garbage.
func (l *Log) repairOrSeal(off int64) {
	err := l.f.Truncate(off)
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		_, err = l.f.Seek(off, io.SeekStart)
	}
	if err != nil {
		l.f.Close()
		l.f = nil
		return
	}
	l.size = off
}

// Sync flushes the active segment to disk — the explicit durability point
// for NoSync logs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// TruncateTo retracts the active segment back to pos, erasing the most
// recent append(s). It is the journal's rollback primitive for an operation
// that was recorded but whose application failed: the position must lie in
// the active segment (Append never splits a record across segments, and the
// caller retracts only what it just appended).
func (l *Log) TruncateTo(pos Position) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if pos.Segment != l.seq {
		return fmt.Errorf("wal: truncate targets segment %d but segment %d is active", pos.Segment, l.seq)
	}
	if pos.Offset < 0 || pos.Offset > l.size {
		return fmt.Errorf("wal: truncate offset %d outside the active segment's %d bytes", pos.Offset, l.size)
	}
	if err := truncateSync(l.f, pos.Offset); err != nil {
		return err
	}
	if _, err := l.f.Seek(pos.Offset, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = pos.Offset
	if l.syncedSize > pos.Offset {
		l.syncedSize = pos.Offset
	}
	return nil
}

// Rotate seals the active segment and starts the next one, returning the
// new active sequence. An empty active segment is reused rather than
// rotated away: the returned sequence then equals the current one, which
// keeps back-to-back checkpoints from leaking empty segment files.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateLocked()
}

// rotateLocked is Rotate with l.mu held (Append rotates at the segment
// boundary from inside its critical section). Sealing syncs the outgoing
// segment, so every record it holds is durable regardless of sync policy —
// which is what lets a group-sync leader cover only the active segment.
func (l *Log) rotateLocked() (uint64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.size == 0 {
		return l.seq, nil
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: sealing segment %d: %w", l.seq, err)
	}
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("wal: sealing segment %d: %w", l.seq, err)
	}
	l.f = nil
	if err := l.createSegment(l.seq + 1); err != nil {
		return 0, err
	}
	// Every frame written so far now lives in a sealed, synced segment:
	// advance the group-sync coverage so a waiter whose frame rotated away
	// returns success even if a LATER sync on the new segment fails — its
	// record is durable and will replay, so it must never be reported
	// failed.
	sealed := l.writeGen
	l.gmu.Lock()
	if l.syncedGen < sealed {
		l.syncedGen = sealed
		l.gcond.Broadcast()
	}
	l.gmu.Unlock()
	return l.seq, nil
}

// RemoveSegmentsBefore deletes every segment with a sequence below seq —
// the compaction step once a snapshot covering them is durable.
func (l *Log) RemoveSegmentsBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, s := range l.segs {
		if s >= seq {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(l.segmentPath(s)); err != nil && !os.IsNotExist(err) {
			// Keep the listing truthful: this segment and every not-yet
			// visited one (including the active segment) still exist.
			kept = append(kept, l.segs[i:]...)
			l.segs = kept
			return fmt.Errorf("wal: removing segment %d: %w", s, err)
		}
	}
	l.segs = kept
	return syncDir(l.dir)
}

// Replay streams every intact record of the segments with sequence >= from,
// in segment then append order, and returns how many records fn consumed.
// A torn or corrupt frame in a sealed segment is an error; the active
// segment was already repaired by Open, so its records are always intact.
func (l *Log) Replay(from uint64, fn func(payload []byte) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, seq := range l.segs {
		if seq < from {
			continue
		}
		records, _, torn, err := scanSegmentRecords(l.segmentPath(seq), fn)
		n += records
		if err != nil {
			return n, err
		}
		if torn && seq != l.seq {
			return n, fmt.Errorf("wal: segment %d is sealed but ends in a torn record", seq)
		}
	}
	return n, nil
}

// Close seals the log and releases the directory lock. Records already
// appended stay durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		err = l.f.Sync()
		if err == nil {
			// The seal flushed everything: an appender racing this Close
			// finds its batch durable rather than failed.
			l.closedSynced = true
		} else if !l.opts.NoSync {
			// Close's sync failed, so in-flight appenders will be told
			// their records failed: truncate past the durable prefix before
			// sealing, mirroring the failed-group-sync path, so reopen
			// never replays an unacknowledged frame. (Fault injection only
			// — unreachable while appends and Close are serialized by the
			// resolver.)
			l.f.Truncate(l.syncedSize)
			l.f.Sync()
			l.size = l.syncedSize
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
		l.lock = nil
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// createSegment makes seq the empty active segment.
func (l *Log) createSegment(seq uint64) error {
	path := l.segmentPath(seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", seq, err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size = f, seq, 0
	l.syncedSize = 0
	l.segs = append(l.segs, seq)
	return nil
}

func (l *Log) segmentPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(segFormat, seq))
}

// ListNumberedFiles returns the sequence numbers of the "<prefix><seq
// digits><suffix>" files in dir, ascending. Files whose middle does not
// parse as a positive integer are ignored (foreign files that happen to
// match the shape). Both the log's segment files and the snapshot files of
// the layer above are named this way, so both listings share this routine.
func ListNumberedFiles(dir, prefix, suffix string) ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*"+suffix))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		digits := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), prefix), suffix)
		seq, err := strconv.ParseUint(digits, 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// listSegments returns the segment sequences present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	return ListNumberedFiles(dir, "wal-", ".seg")
}

// truncateSync truncates the file and syncs the new length to disk.
func truncateSync(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}
