package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"whopay/internal/wal"
	"whopay/internal/wal/crashfs"
)

// payload builds a distinguishable record body.
func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxx")) }

// replayAll opens dir and returns every replayed payload.
func replayAll(t *testing.T, cfg wal.Config) [][]byte {
	t.Helper()
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{Dir: dir, Policy: wal.FsyncAlways}
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := replayAll(t, cfg)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payload(i))
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{Dir: dir, SegmentSize: 128} // tiny: rotate every few records
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files, err := wal.Files(nil, dir)
	if err != nil {
		t.Fatalf("Files: %v", err)
	}
	if len(files) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", files)
	}
	got := replayAll(t, cfg)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
}

func TestReopenAppendsContinue(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{Dir: dir}
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l, err = wal.Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.Replay(func([]byte) error { return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for i := 5; i < 10; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := replayAll(t, cfg)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payload(i))
		}
	}
}

// TestTornTailTruncationSweep kills the log at every byte offset of the final
// segment: replay must always yield an exact record prefix — the torn record
// is discarded by CRC, never half-applied — and appending afterwards must not
// resurrect it.
func TestTornTailTruncationSweep(t *testing.T) {
	master := t.TempDir()
	cfg := wal.Config{Dir: master}
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files, err := wal.Files(nil, master)
	if err != nil || len(files) != 1 {
		t.Fatalf("Files: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	offsets, err := wal.RecordOffsets(nil, files[0])
	if err != nil {
		t.Fatalf("RecordOffsets: %v", err)
	}
	if len(offsets) != n+1 {
		t.Fatalf("got %d boundaries, want %d", len(offsets), n+1)
	}
	boundary := make(map[int64]int) // offset -> records before it
	for i, off := range offsets {
		boundary[off] = i
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(files[0])), data[:cut], 0o644); err != nil {
			t.Fatalf("truncate copy: %v", err)
		}
		sub := wal.Config{Dir: dir}
		got := replayAll(t, sub)
		// Replay must be the longest record prefix that fits in cut bytes.
		want := 0
		for _, off := range offsets {
			if off <= int64(cut) {
				want = boundary[off]
			}
		}
		if len(got) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), want)
		}
		for i, p := range got {
			if !bytes.Equal(p, payload(i)) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
		// Recovery must be able to continue appending cleanly.
		l2, err := wal.Open(sub)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if err := l2.Replay(func([]byte) error { return nil }); err != nil {
			t.Fatalf("cut at %d: replay: %v", cut, err)
		}
		if err := l2.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		final := replayAll(t, sub)
		if len(final) != want+1 || !bytes.Equal(final[want], []byte("post-crash")) {
			t.Fatalf("cut at %d: post-recovery log has %d records, want %d", cut, len(final), want+1)
		}
	}
}

// TestCorruptRecordDiscarded flips a byte mid-file: replay stops before the
// damaged record rather than applying garbage.
func TestCorruptRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{Dir: dir}
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files, _ := wal.Files(nil, dir)
	offsets, _ := wal.RecordOffsets(nil, files[0])
	data, _ := os.ReadFile(files[0])
	data[offsets[3]+10] ^= 0xFF // damage record 3's payload
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got := replayAll(t, cfg)
	if len(got) != 3 {
		t.Fatalf("replayed %d records past corruption, want 3", len(got))
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := wal.Config{Dir: dir, SegmentSize: 256}
	l, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	pre := l.LiveSize()
	// Compact to two summary records.
	err = l.Snapshot(func(app func([]byte) error) error {
		if err := app([]byte("state-a")); err != nil {
			return err
		}
		return app([]byte("state-b"))
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if l.LiveSize() >= pre {
		t.Fatalf("LiveSize %d did not shrink from %d after snapshot", l.LiveSize(), pre)
	}
	for i := 30; i < 35; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatalf("Append after snapshot: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := replayAll(t, cfg)
	want := [][]byte{[]byte("state-a"), []byte("state-b")}
	for i := 30; i < 35; i++ {
		want = append(want, payload(i))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The covered segments must be gone.
	files, _ := wal.Files(nil, dir)
	if len(files) > 3 {
		t.Fatalf("compaction left %d files: %v", len(files), files)
	}
}

// TestCrashfsByteSweep drives the log through a crash at every byte budget:
// recovery with the real filesystem must always see an intact record prefix.
func TestCrashfsByteSweep(t *testing.T) {
	// Probe run: count the total bytes of the scripted append sequence.
	script := func(l *wal.Log) error {
		for i := 0; i < 10; i++ {
			if err := l.Append(payload(i)); err != nil {
				return err
			}
		}
		return nil
	}
	probeDir := t.TempDir()
	counter := crashfs.Count(wal.OS())
	l, err := wal.Open(wal.Config{Dir: probeDir, FS: counter})
	if err != nil {
		t.Fatalf("probe Open: %v", err)
	}
	if err := script(l); err != nil {
		t.Fatalf("probe script: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("probe Close: %v", err)
	}
	total := counter.Written()
	if total == 0 {
		t.Fatal("probe wrote nothing")
	}

	for budget := int64(0); budget <= total; budget++ {
		dir := t.TempDir()
		cfs := crashfs.Limit(wal.OS(), budget)
		l, err := wal.Open(wal.Config{Dir: dir, FS: cfs})
		if err != nil {
			continue // crashed during setup: nothing durable to check
		}
		_ = script(l) // expected to fail at the crash point
		// No Close: the process died. Recover with the real filesystem.
		got := replayAll(t, wal.Config{Dir: dir})
		if int64(len(got)) > budget/int64(len(payload(0)))+1 {
			t.Fatalf("budget %d: %d records survived, more than written", budget, len(got))
		}
		for i, p := range got {
			if !bytes.Equal(p, payload(i)) {
				t.Fatalf("budget %d: record %d corrupted after crash", budget, i)
			}
		}
	}
}

// TestErrLatchesFirstFailure: concurrent Commits against a log whose
// filesystem dies mid-run leave Err set to the first failure, and nothing
// that fails afterwards — more Commits, a Sync, a Snapshot — replaces it.
func TestErrLatchesFirstFailure(t *testing.T) {
	l, err := wal.Open(wal.Config{Dir: t.TempDir(), FS: crashfs.Limit(wal.OS(), 4<<10)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Err(); err != nil {
		t.Fatalf("fresh log: Err = %v", err)
	}

	const writers, commits = 8, 64
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		returned []error // every error a Commit returned
		observed []error // Err as read right after each failing Commit
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				err := l.Commit(wal.Set("t", []byte(fmt.Sprintf("%d/%d", w, i)), payload(i)))
				if err == nil {
					continue
				}
				latched := l.Err()
				mu.Lock()
				returned = append(returned, err)
				observed = append(observed, latched)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(returned) == 0 {
		t.Fatal("the byte budget never ran out")
	}
	first := l.Err()
	if !errors.Is(first, crashfs.ErrCrashed) {
		t.Fatalf("Err = %v, want the simulated crash", first)
	}
	isReturned := false
	for _, err := range returned {
		isReturned = isReturned || err == first
	}
	if !isReturned {
		t.Fatalf("Err = %v is not an error any Commit returned", first)
	}
	for _, err := range observed {
		if err != first {
			t.Fatalf("Err read %v after a failing Commit, later %v: the latch moved", err, first)
		}
	}

	if err := l.Commit(wal.Set("t", []byte("late"), nil)); err == nil {
		t.Fatal("Commit after the crash succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after the crash succeeded")
	}
	if err := l.Snapshot(func(func([]byte) error) error { return nil }); err == nil {
		t.Fatal("Snapshot after the crash succeeded")
	}
	if got := l.Err(); got != first {
		t.Fatalf("Err changed from %v to %v", first, got)
	}
}

func TestBatchCodecRoundTripDeterministic(t *testing.T) {
	muts := []wal.Mutation{
		wal.Set("coins", []byte("k1"), []byte("v1")),
		wal.Delete("downtime", []byte("k2")),
		wal.Set("ledger", []byte(""), nil),
	}
	enc := wal.EncodeBatch(muts)
	dec, err := wal.DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(dec) != len(muts) {
		t.Fatalf("decoded %d mutations, want %d", len(dec), len(muts))
	}
	for i := range muts {
		if dec[i].Table != muts[i].Table || dec[i].Op != muts[i].Op ||
			!bytes.Equal(dec[i].Key, muts[i].Key) || !bytes.Equal(dec[i].Val, muts[i].Val) {
			t.Fatalf("mutation %d round-trip mismatch: %+v vs %+v", i, dec[i], muts[i])
		}
	}
	if !bytes.Equal(wal.EncodeBatch(dec), enc) {
		t.Fatal("re-encoding decoded batch is not byte-identical")
	}
	// Corrupted batches must error, not panic.
	for cut := 0; cut < len(enc); cut++ {
		_, _ = wal.DecodeBatch(enc[:cut])
	}
}

func TestPolicyParse(t *testing.T) {
	for _, p := range []wal.Policy{wal.FsyncNever, wal.FsyncInterval, wal.FsyncAlways} {
		got, err := wal.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := wal.ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}
