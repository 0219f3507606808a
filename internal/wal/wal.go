// Package wal implements the write-ahead log behind WhoPay's crash-safe
// durability (DESIGN.md §10): a segmented, CRC-checksummed, length-prefixed
// append log with configurable fsync policy, segment rotation, and
// compaction that folds the log into a snapshot.
//
// On-disk layout (one directory per entity):
//
//	seg-00000001.wal   appended records, oldest segment first
//	seg-00000002.wal   ...
//	snap-00000002.wal  compacted state covering segments <= 2
//
// Each record is framed as
//
//	[length uint32 BE][crc32(payload) uint32 BE][payload]
//
// and a snapshot is simply a compacted record stream in the same framing, so
// one reader serves both. Recovery replays the newest snapshot, then every
// later segment in order; a truncated or corrupted tail record fails its CRC
// and cleanly ends replay of that file — a torn record is discarded whole,
// never half-applied.
//
// The log compacts itself: every committed record is a batch of full-value
// sets and deletes (Mutation), so a snapshot is the fold of the files it
// covers (see fold) and can hold nothing that no commit journaled.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/obs"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// FsyncNever leaves flushing to the OS: fastest, loses the page-cache
	// tail on power failure (not on process crash).
	FsyncNever Policy = iota
	// FsyncInterval syncs at most once per Config.Interval, bounding the
	// loss window while amortizing the fsync cost.
	FsyncInterval
	// FsyncAlways syncs after every append: an acknowledged operation is
	// durable even across power failure.
	FsyncAlways
)

// String names the policy (flag parsing in whopay-bench, results files).
func (p Policy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy reads a policy name as printed by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "never":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (never|interval|always)", s)
}

// Defaults for zero Config fields.
const (
	DefaultInterval      = 100 * time.Millisecond
	DefaultSegmentSize   = 4 << 20
	DefaultSnapshotEvery = 8 << 20
)

// maxRecordLen bounds a single record so a corrupted length prefix cannot
// drive a giant allocation; anything larger is treated as a torn tail.
const maxRecordLen = 16 << 20

// frameHeaderLen is the per-record framing overhead: length + CRC.
const frameHeaderLen = 8

// snapshotRecordLen bounds the mutations batched into one snapshot record;
// it is also the buffer size of snapshot writes and of every file scan.
const snapshotRecordLen = 64 << 10

// Config configures a Log. Entities take a *Config knob (nil = no
// persistence, today's pure in-memory behavior).
type Config struct {
	// Dir holds the entity's segments and snapshots (created on demand).
	Dir string
	// Policy is the fsync policy (default FsyncNever).
	Policy Policy
	// Interval is the FsyncInterval period (default DefaultInterval).
	Interval time.Duration
	// SegmentSize rotates to a fresh segment once the current one exceeds
	// this many bytes (default DefaultSegmentSize).
	SegmentSize int64
	// SnapshotEvery is the live-byte threshold past which a Commit
	// compacts the log on its own goroutine, after the write (default
	// DefaultSnapshotEvery).
	SnapshotEvery int64
	// FS overrides the filesystem (crash injection); default the OS.
	FS FS
	// Obs, when set, records WAL metrics (fsync latency, segment
	// rotations, snapshots, I/O errors) into the registry. Nil (the
	// default) keeps the log byte-identical to an uninstrumented one.
	Obs *obs.Registry
	// Entity labels this log's metrics (default: the base name of Dir).
	Entity string
	// OnAppend, when set, observes every committed record: the segment
	// sequence number, the byte offset of the frame within that segment,
	// and the raw frame bytes (header + payload) exactly as written. It is
	// invoked synchronously inside the log's write lock after the local
	// write (and fsync, per policy) succeeded, so callbacks see appends in
	// total order — the hook federation's leader uses to stream its log to
	// followers byte-for-byte. The callback must not call back into the
	// log.
	OnAppend func(seg uint64, off int64, frame []byte)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = DefaultSegmentSize
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.FS == nil {
		c.FS = OS()
	}
	return c
}

// Sub returns a copy of the config rooted at a subdirectory — how a cluster
// hands each node its own log directory under one configured root.
func (c *Config) Sub(name string) *Config {
	if c == nil {
		return nil
	}
	sub := *c
	sub.Dir = filepath.Join(c.Dir, name)
	return &sub
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is a segmented append log. Safe for concurrent use. Replay must
// finish before the first Append.
type Log struct {
	cfg Config
	fs  FS

	mu         sync.Mutex
	cur        File   // current append segment
	curSeq     uint64 // its sequence number
	curSize    int64  // bytes written to it (including recovered bytes)
	sealedLive int64  // valid bytes in sealed segments newer than the snapshot
	lastSync   time.Time
	closed     bool
	appended   bool // set on first Append; Replay refuses afterwards

	// replay plan captured at Open
	snapFile   string   // newest snapshot, "" if none
	replaySegs []uint64 // segments newer than the snapshot, in order

	snapBusy atomic.Bool

	// failed latches the first error Append, Sync or Snapshot returned
	// (see Err); it never changes once set.
	failed atomic.Pointer[error]

	// obs handles (nil-safe no-ops when Config.Obs is unset)
	mFsync     *obs.Histogram
	mRotations *obs.Counter
	mSnapshots *obs.Counter
	mErrors    *obs.Counter
}

// Open opens (or creates) the log in cfg.Dir, scanning the newest segment
// for a torn tail: a segment whose last record is incomplete or fails its
// CRC is sealed as-is and appending continues in a fresh segment, so damaged
// bytes are never written after.
func Open(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	fs := cfg.FS
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	names, err := fs.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}

	var snapSeq, maxSeq uint64
	var segs []uint64
	for _, name := range names {
		if seq, ok := parseName(name, "snap-"); ok {
			if seq > snapSeq {
				snapSeq = seq
			}
			if seq > maxSeq {
				maxSeq = seq
			}
			continue
		}
		if seq, ok := parseName(name, "seg-"); ok {
			segs = append(segs, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
			continue
		}
		// Leftover temporaries from an interrupted snapshot are garbage.
		if filepath.Ext(name) == ".tmp" {
			_ = fs.Remove(filepath.Join(cfg.Dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	l := &Log{cfg: cfg, fs: fs, lastSync: time.Now()}
	if cfg.Obs != nil {
		entity := cfg.Entity
		if entity == "" {
			entity = filepath.Base(cfg.Dir)
		}
		lbl := obs.Labels{"entity": entity}
		cfg.Obs.Help("whopay_wal_fsync_seconds", "Latency of WAL fsync calls.")
		cfg.Obs.Help("whopay_wal_segment_rotations_total", "WAL segments opened (including the initial one).")
		cfg.Obs.Help("whopay_wal_snapshots_total", "WAL snapshots successfully installed.")
		cfg.Obs.Help("whopay_wal_errors_total", "WAL write/sync failures.")
		l.mFsync = cfg.Obs.Histogram("whopay_wal_fsync_seconds", lbl, nil)
		l.mRotations = cfg.Obs.Counter("whopay_wal_segment_rotations_total", lbl)
		l.mSnapshots = cfg.Obs.Counter("whopay_wal_snapshots_total", lbl)
		l.mErrors = cfg.Obs.Counter("whopay_wal_errors_total", lbl)
	}
	if snapSeq > 0 {
		l.snapFile = filepath.Join(cfg.Dir, fileName("snap-", snapSeq))
	}
	// Segments at or below the snapshot are superseded (normally deleted
	// when the snapshot was cut; a crash mid-cleanup can leave them).
	for _, seq := range segs {
		if seq > snapSeq {
			l.replaySegs = append(l.replaySegs, seq)
		}
	}

	if n := len(l.replaySegs); n > 0 {
		// Size every live segment (liveSize drives snapshot thresholds)
		// and check the newest for a torn tail.
		for i, seq := range l.replaySegs {
			valid, clean, err := scanFile(fs, filepath.Join(cfg.Dir, fileName("seg-", seq)), nil)
			if err != nil {
				return nil, err
			}
			last := i == n-1
			if last && clean {
				f, err := fs.OpenAppend(filepath.Join(cfg.Dir, fileName("seg-", seq)))
				if err != nil {
					return nil, fmt.Errorf("wal: reopen segment: %w", err)
				}
				l.cur, l.curSeq, l.curSize = f, seq, valid
			} else {
				l.sealedLive += valid
			}
		}
	}
	if l.cur == nil {
		if err := l.rotateLocked(maxSeq + 1); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Replay streams every durable record — newest snapshot first, then later
// segments in order — to fn. It must run before the first Append. A record
// that fails its CRC ends replay of that file (the torn tail discarded as a
// unit); fn returning an error aborts the replay.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.appended {
		l.mu.Unlock()
		return errors.New("wal: Replay after Append")
	}
	snap, segs := l.snapFile, append([]uint64(nil), l.replaySegs...)
	l.mu.Unlock()
	return l.scan(snap, segs, fn)
}

// scan streams the records of snapshot snap ("" for none), then of segments
// segs in order, to fn.
func (l *Log) scan(snap string, segs []uint64, fn func(payload []byte) error) error {
	if snap != "" {
		if _, _, err := scanFile(l.fs, snap, fn); err != nil {
			return err
		}
	}
	for _, seq := range segs {
		if _, _, err := scanFile(l.fs, filepath.Join(l.cfg.Dir, fileName("seg-", seq)), fn); err != nil {
			return err
		}
	}
	return nil
}

// Commit journals muts as one atomic record (EncodeBatch payload): replay
// applies the whole batch or none of it. An empty commit writes nothing.
// This is how entities journal every decision. A commit that leaves the
// live log at Config.SnapshotEvery or more then compacts it (Snapshot); the
// commit is durable either way, so a compaction failure only latches in Err.
func (l *Log) Commit(muts ...Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	due, err := l.append(EncodeBatch(muts))
	if due {
		_ = l.Snapshot()
	}
	return err
}

// Err returns the first failure of Append, Sync or Snapshot since Open, or
// nil. A log that has failed once may have acknowledged work it could not
// make durable; its entity must be treated as crashed, so the value never
// changes after it is set.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail latches err as the log's failure when it is the first one (see Err)
// and returns it. Append and Sync call it under l.mu, so their failures
// latch in the order they happened.
func (l *Log) fail(err error) error {
	if err != nil {
		l.failed.CompareAndSwap(nil, &err)
	}
	return err
}

// Append frames payload as one record and writes it, rotating segments and
// syncing per the configured policy. The record is durable per the policy
// when Append returns. Append never compacts: only Commit's records are
// known to be mutation batches a snapshot can fold.
func (l *Log) Append(payload []byte) error {
	_, err := l.append(payload)
	return err
}

// append is Append, also reporting whether the live log has reached
// Config.SnapshotEvery. It reads the size in the lock hold that wrote the
// record: under FsyncAlways a second acquisition queues behind other
// commits' fsyncs.
func (l *Log) append(payload []byte) (due bool, err error) {
	if len(payload) > maxRecordLen {
		return false, l.fail(fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), maxRecordLen))
	}
	buf := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fail(l.appendLocked(buf)); err != nil {
		return false, err
	}
	return l.sealedLive+l.curSize >= l.cfg.SnapshotEvery, nil
}

// appendFrame appends payload to dst in the record framing.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// appendLocked writes one framed record under l.mu.
func (l *Log) appendLocked(buf []byte) error {
	if l.closed {
		return ErrClosed
	}
	l.appended = true
	seg, off := l.curSeq, l.curSize
	if _, err := l.cur.Write(buf); err != nil {
		l.mErrors.Inc()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.curSize += int64(len(buf))
	if err := l.syncLocked(false); err != nil {
		return err
	}
	if l.cfg.OnAppend != nil {
		l.cfg.OnAppend(seg, off, buf)
	}
	if l.curSize >= l.cfg.SegmentSize {
		if err := l.sealLocked(); err != nil {
			return err
		}
		if err := l.rotateLocked(l.curSeq + 1); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces an fsync of the current segment regardless of policy (epoch
// fences, pre-delivery intents).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.fail(ErrClosed)
	}
	return l.fail(l.syncLocked(true))
}

// LiveSize returns the bytes of record data not yet covered by a snapshot —
// the replay cost of a crash right now. Commit compares it against
// Config.SnapshotEvery.
func (l *Log) LiveSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealedLive + l.curSize
}

// Snapshot compacts the log: it seals the current segment, folds the
// previous snapshot and every segment up to it into the state they replay
// to (see fold), and atomically installs the result as the new replay root,
// deleting the files it covers.
//
// Only sealed files are read, so commits carry on into the post-rotation
// segment while the fold runs. Every record must be a mutation batch
// (Commit's format); any other record fails the snapshot.
func (l *Log) Snapshot() error {
	return l.fail(l.snapshot())
}

// snapshot is Snapshot without the failure latch.
func (l *Log) snapshot() error {
	if !l.snapBusy.CompareAndSwap(false, true) {
		return nil // one at a time; the next commit past the threshold retries
	}
	defer l.snapBusy.Store(false)

	// Phase 1 (locked): seal and rotate so the snapshot has a stable cover
	// point — everything in segments <= snapSeq.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.sealLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	snapSeq := l.curSeq
	sealedBytes := l.sealedLive
	covered := append([]uint64(nil), l.replaySegs...)
	oldSnap := l.snapFile
	if err := l.rotateLocked(snapSeq + 1); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	// Phase 2 (unlocked): fold the covered files, then write the survivors
	// to a temporary file and fsync it before the rename — a crash
	// mid-write leaves only ignorable garbage.
	survivors, err := l.fold(oldSnap, covered)
	if err != nil {
		return fmt.Errorf("wal: snapshot fold: %w", err)
	}
	tmp := filepath.Join(l.cfg.Dir, fileName("snap-", snapSeq)+".tmp")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot create: %w", err)
	}
	if err := writeSnapshot(f, survivors); err != nil {
		_ = f.Close()
		_ = l.fs.Remove(tmp)
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	final := filepath.Join(l.cfg.Dir, fileName("snap-", snapSeq))
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: snapshot install: %w", err)
	}

	// Phase 3 (locked): the snapshot is the new replay root; covered
	// segments and the previous snapshot are garbage.
	l.mu.Lock()
	l.snapFile = final
	l.replaySegs = l.replaySegs[len(covered):] // rotations since phase 1 only appended
	l.sealedLive -= sealedBytes
	l.mu.Unlock()
	for _, seq := range covered {
		_ = l.fs.Remove(filepath.Join(l.cfg.Dir, fileName("seg-", seq)))
	}
	if oldSnap != "" && oldSnap != final {
		_ = l.fs.Remove(oldSnap)
	}
	l.mSnapshots.Inc()
	return nil
}

// foldKey names one journaled row.
type foldKey struct{ table, key string }

// fold replays snapshot snap and segments segs into the state they
// describe: the last set of each (table, key) survives unless a later
// delete dropped it. Survivors come back as sets in the order of their
// latest insert — the set that found the key absent — so a row that other
// rows presuppose (a peer's owned coin before its proofs) still replays
// first.
func (l *Log) fold(snap string, segs []uint64) ([]Mutation, error) {
	var rows []Mutation // latest-insert order; Op 0 marks a deleted row
	index := make(map[foldKey]int)
	apply := func(payload []byte) error {
		muts, err := DecodeBatch(payload)
		if err != nil {
			return err
		}
		for _, m := range muts {
			k := foldKey{m.Table, string(m.Key)}
			i, live := index[k]
			switch {
			case m.Op == OpDelete:
				if live {
					rows[i] = Mutation{}
					delete(index, k)
				}
			case live:
				rows[i].Val = m.Val
			default:
				index[k] = len(rows)
				rows = append(rows, m)
			}
		}
		return nil
	}
	if err := l.scan(snap, segs, apply); err != nil {
		return nil, err
	}
	survivors := rows[:0]
	for _, m := range rows {
		if m.Op != 0 {
			survivors = append(survivors, m)
		}
	}
	return survivors, nil
}

// writeSnapshot writes muts as mutation batches of at most about
// snapshotRecordLen bytes each, through one buffered writer. A mutation
// larger than that is a record of its own, no larger than the journal
// record it came from.
func writeSnapshot(f File, muts []Mutation) error {
	w := bufio.NewWriterSize(f, snapshotRecordLen)
	var frame []byte
	for len(muts) > 0 {
		n, size := 0, 0
		for ; n < len(muts); n++ {
			size += len(muts[n].Table) + len(muts[n].Key) + len(muts[n].Val)
			if n > 0 && size > snapshotRecordLen {
				break
			}
		}
		frame = appendFrame(frame[:0], EncodeBatch(muts[:n]))
		if _, err := w.Write(frame); err != nil {
			return err
		}
		muts = muts[n:]
	}
	return w.Flush()
}

// Close syncs and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.cur != nil {
		if err := l.cur.Sync(); err != nil {
			_ = l.cur.Close()
			return err
		}
		return l.cur.Close()
	}
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.cfg.Dir }

// syncLocked applies the fsync policy; force bypasses it.
func (l *Log) syncLocked(force bool) error {
	switch {
	case force, l.cfg.Policy == FsyncAlways:
	case l.cfg.Policy == FsyncInterval && time.Since(l.lastSync) >= l.cfg.Interval:
	default:
		return nil
	}
	t0 := l.mFsync.Start()
	if err := l.cur.Sync(); err != nil {
		l.mErrors.Inc()
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.mFsync.ObserveSince(t0)
	l.lastSync = time.Now()
	return nil
}

// sealLocked syncs and closes the current segment (it stays replayable) and
// moves its bytes into the sealed-live tally.
func (l *Log) sealLocked() error {
	if l.cur == nil {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: seal sync: %w", err)
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("wal: seal close: %w", err)
	}
	l.sealedLive += l.curSize
	l.curSize = 0
	l.cur = nil
	return nil
}

// rotateLocked opens a fresh segment with the given sequence number.
func (l *Log) rotateLocked(seq uint64) error {
	f, err := l.fs.Create(filepath.Join(l.cfg.Dir, fileName("seg-", seq)))
	if err != nil {
		l.mErrors.Inc()
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.cur, l.curSeq, l.curSize = f, seq, 0
	l.replaySegs = append(l.replaySegs, seq)
	l.mRotations.Inc()
	return nil
}

// fileName formats prefix + zero-padded sequence.
func fileName(prefix string, seq uint64) string { return fmt.Sprintf("%s%08d.wal", prefix, seq) }

// parseName inverts fileName.
func parseName(name, prefix string) (uint64, bool) {
	if len(name) != len(prefix)+8+4 || name[:len(prefix)] != prefix || name[len(name)-4:] != ".wal" {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(name)-4] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// scanFile reads records from path, calling fn (when non-nil) per valid
// payload. It returns the byte count of valid records and whether the file
// ended exactly at a record boundary (clean). A short or CRC-failing tail is
// not an error — it is the torn write recovery exists for.
func scanFile(fs FS, path string, fn func(payload []byte) error) (valid int64, clean bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, snapshotRecordLen)
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return valid, err == io.EOF, nil
		}
		length := binary.BigEndian.Uint32(header[0:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length > maxRecordLen {
			return valid, false, nil // corrupted length: torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, false, nil // short payload: torn tail
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, false, nil // corrupted payload: discard whole record
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, false, err
			}
		}
		valid += frameHeaderLen + int64(length)
	}
}

// Files returns the replay-relevant files of dir in replay order (newest
// snapshot first, then later segments) — test and tooling surface.
func Files(fs FS, dir string) ([]string, error) {
	if fs == nil {
		fs = OS()
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapSeq uint64
	var segs []uint64
	for _, name := range names {
		if seq, ok := parseName(name, "snap-"); ok && seq > snapSeq {
			snapSeq = seq
		}
		if seq, ok := parseName(name, "seg-"); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	var out []string
	if snapSeq > 0 {
		out = append(out, filepath.Join(dir, fileName("snap-", snapSeq)))
	}
	for _, seq := range segs {
		if seq > snapSeq {
			out = append(out, filepath.Join(dir, fileName("seg-", seq)))
		}
	}
	return out, nil
}

// RecordOffsets returns the cumulative byte offsets of every valid record
// boundary in path, starting with 0 — the crash-injection sweep truncates at
// (and around) each of these.
func RecordOffsets(fs FS, path string) ([]int64, error) {
	if fs == nil {
		fs = OS()
	}
	offsets := []int64{0}
	var off int64
	_, _, err := scanFile(fs, path, func(payload []byte) error {
		off += frameHeaderLen + int64(len(payload))
		offsets = append(offsets, off)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return offsets, nil
}
