package dht

import (
	"fmt"
	"sort"
	"time"

	"whopay/internal/bus"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Node durability (DESIGN.md §10). A persistent node journals every accepted
// record and subscription change before acking, and replays the journal on
// restart, so the public binding list — the substance of real-time
// double-spending detection — survives node crashes.
//
// Restart semantics are guarded by a monotonic node epoch, bumped (and
// force-synced) on every recovery. Stored records are stamped with the epoch
// that accepted them. A record carried over from before the latest crash
// (Epoch < current) may be refreshed at the same version by a trusted writer
// — the broker re-asserting the authoritative binding after the outage — and
// once refreshed it sits at the current epoch, so a delayed pre-crash racing
// write can never clobber the post-recovery binding: equal-version conflicts
// within one epoch are refused exactly as before.

// Journal tables and their record values, all in internal/wire encodings.
const (
	tblEpoch = "epoch" // epoch (u64)
	tblRec   = "rec"   // Key -> Record (Record.AppendWire)
	tblSub   = "sub"   // Key -> sorted watcher addresses (wire.AppendStrings)
)

var epochKey = []byte("epoch")

// sortedWatchers flattens a watcher set into its journaled form.
func sortedWatchers(ws map[bus.Address]bool) []string {
	watchers := make([]string, 0, len(ws))
	for w := range ws {
		watchers = append(watchers, string(w))
	}
	sort.Strings(watchers)
	return watchers
}

// journal appends one record batch, remembering the first failure.
func (n *Node) journal(muts ...wal.Mutation) {
	if n.walLog == nil {
		return
	}
	if err := n.walLog.Append(wal.EncodeBatch(muts)); err != nil {
		n.walFail(err)
	}
}

func (n *Node) walFail(err error) {
	if err == nil {
		return
	}
	n.walMu.Lock()
	if n.walErr == nil {
		n.walErr = err
	}
	n.walMu.Unlock()
}

// PersistenceErr returns the first durability failure since startup, or nil.
func (n *Node) PersistenceErr() error {
	n.walMu.Lock()
	defer n.walMu.Unlock()
	return n.walErr
}

// Epoch returns the node's current epoch (0 for in-memory nodes).
func (n *Node) Epoch() uint64 { return n.epoch }

// journalRecordLocked journals an accepted record; the caller holds the
// record's shard write lock, so journal order matches acceptance order.
func (n *Node) journalRecordLocked(rec Record) {
	if n.walLog == nil {
		return
	}
	n.journal(wal.Set(tblRec, rec.Key[:], rec.AppendWire(nil)))
}

// journalSubsLocked journals a key's full watcher set (nil deletes); the
// caller holds the subscription shard's write lock.
func (n *Node) journalSubsLocked(key Key, ws map[bus.Address]bool) {
	if n.walLog == nil {
		return
	}
	if len(ws) == 0 {
		n.journal(wal.Delete(tblSub, key[:]))
		return
	}
	n.journal(wal.Set(tblSub, key[:], wire.AppendStrings(nil, sortedWatchers(ws))))
}

// recoverState replays the node's journal and advances the epoch. Runs
// before the node starts serving.
func (n *Node) recoverState() error {
	var lastEpoch uint64
	err := n.walLog.Replay(func(payload []byte) error {
		muts, err := wal.DecodeBatch(payload)
		if err != nil {
			return err
		}
		for _, m := range muts {
			if err := n.applyRecovered(m, &lastEpoch); err != nil {
				return fmt.Errorf("dht: replaying %s record: %w", m.Table, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The epoch bump is the restart fence: force-synced so that even under
	// FsyncNever a recovered node never serves in a stale epoch.
	n.epoch = lastEpoch + 1
	n.journal(wal.Set(tblEpoch, epochKey, wire.AppendU64(nil, n.epoch)))
	if err := n.walLog.Sync(); err != nil {
		return err
	}
	n.lastForceSync.Store(time.Now().UnixNano())
	return n.PersistenceErr()
}

// applyRecovered applies one replayed mutation.
func (n *Node) applyRecovered(m wal.Mutation, lastEpoch *uint64) error {
	switch m.Table {
	case tblEpoch:
		epoch, err := wire.DecodeExact(m.Val, (*wire.Decoder).U64)
		if err != nil {
			return err
		}
		*lastEpoch = epoch
	case tblRec:
		rec, err := wire.DecodeExact(m.Val, DecodeWireRecord)
		if err != nil {
			return err
		}
		n.store.Set(rec.Key, rec)
	case tblSub:
		var key Key
		copy(key[:], m.Key)
		if m.Op == wal.OpDelete {
			n.subs.Delete(key)
			return nil
		}
		watchers, err := wire.DecodeExact(m.Val, wire.DecodeStrings[string])
		if err != nil {
			return err
		}
		ws := make(map[bus.Address]bool, len(watchers))
		for _, w := range watchers {
			ws[bus.Address(w)] = true
		}
		n.subs.Set(key, ws)
	default:
		return fmt.Errorf("unknown table %q", m.Table)
	}
	return nil
}

// healthCheck reports the node's durability health for /healthz: the
// retained journal error (unhealthy) or the epoch and the age of the
// epoch-fence force-sync cut at recovery (healthy detail).
func (n *Node) healthCheck() (string, error) {
	if err := n.PersistenceErr(); err != nil {
		return "", err
	}
	age := time.Duration(0)
	if t := n.lastForceSync.Load(); t != 0 {
		age = time.Since(time.Unix(0, t)).Round(time.Millisecond)
	}
	return fmt.Sprintf("epoch %d, force-synced %v ago", n.Epoch(), age), nil
}

// maybeSnapshot cuts a compaction snapshot when the journal has outgrown its
// threshold. Never called under a store shard lock.
func (n *Node) maybeSnapshot() {
	if n.walLog != nil && n.walLog.SnapshotDue() {
		n.walFail(n.snapshot())
	}
}

// snapshot writes the node's full state and truncates the journal to it.
func (n *Node) snapshot() error {
	return n.walLog.Snapshot(func(app func([]byte) error) error {
		emit := func(muts ...wal.Mutation) error { return app(wal.EncodeBatch(muts)) }
		if err := emit(wal.Set(tblEpoch, epochKey, wire.AppendU64(nil, n.epoch))); err != nil {
			return err
		}
		var failed error
		n.store.Range(func(_ Key, rec Record) bool {
			failed = emit(wal.Set(tblRec, rec.Key[:], rec.AppendWire(nil)))
			return failed == nil
		})
		if failed != nil {
			return failed
		}
		for _, key := range n.subs.Keys() {
			var watchers []string
			n.subs.View(key, func(ws map[bus.Address]bool, _ bool) {
				watchers = sortedWatchers(ws)
			})
			if len(watchers) == 0 {
				continue
			}
			if err := emit(wal.Set(tblSub, key[:], wire.AppendStrings(nil, watchers))); err != nil {
				return err
			}
		}
		return nil
	})
}
