package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
)

// Journal receives durable mutations. The write-ahead-log-backed
// implementation lives with the entities (internal/core, internal/dht); the
// store layer only defines the contract so it stays free of I/O concerns.
// Implementations must be safe for concurrent use — Durable calls them under
// shard write locks of independent shards.
type Journal interface {
	// LogSet records that val is now stored under key in table.
	LogSet(table string, key, val []byte) error
	// LogDelete records that key was removed from table.
	LogDelete(table string, key []byte) error
}

// Codec converts keys or values to and from their journaled byte form.
// Encodings must be deterministic (byte-identical for equal input) so
// snapshots and the journal round-trip suite can assert stability. The
// entities build theirs from the internal/wire helpers.
type Codec[T any] struct {
	Enc func(T) ([]byte, error)
	Dec func([]byte) (T, error)
}

// StringCodec encodes string-like types as their raw bytes.
func StringCodec[T ~string]() Codec[T] {
	return Codec[T]{
		Enc: func(v T) ([]byte, error) { return []byte(v), nil },
		Dec: func(b []byte) (T, error) { return T(b), nil },
	}
}

// Uint64Codec encodes uint64 keys big-endian (sorts like the integers).
func Uint64Codec() Codec[uint64] {
	return Codec[uint64]{
		Enc: func(v uint64) ([]byte, error) { return binary.BigEndian.AppendUint64(nil, v), nil },
		Dec: func(b []byte) (uint64, error) {
			if len(b) != 8 {
				return 0, fmt.Errorf("store: uint64 key of %d bytes", len(b))
			}
			return binary.BigEndian.Uint64(b), nil
		},
	}
}

// UnitCodec encodes struct{} values (membership tables) as empty bytes.
func UnitCodec() Codec[struct{}] {
	return Codec[struct{}]{
		Enc: func(struct{}) ([]byte, error) { return nil, nil },
		Dec: func([]byte) (struct{}, error) { return struct{}{}, nil },
	}
}

// GobCodec encodes values with a fresh gob encoder per call, so every
// encoding is self-contained (replayable in isolation) and deterministic for
// map-free types. No journal uses it: it remains only because the
// benchmark's store.durable_set_us probe (bench/probes.go) builds one.
func GobCodec[T any]() Codec[T] {
	return Codec[T]{
		Enc: func(v T) ([]byte, error) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Dec: func(b []byte) (T, error) {
			var v T
			err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
			return v, err
		},
	}
}

// Durable decorates a Sharded store with write-ahead journaling: every
// mutation is logged — under the owning shard's write lock, so the journal
// order matches the memory order per key — before the mutating call returns.
// With a nil Journal it is a pure passthrough with zero added locking, which
// is what keeps the Persistence:nil configuration byte-for-byte compatible
// with the in-memory-only behavior.
//
// Journal or codec failures never block the in-memory mutation (the
// protocol response must not diverge from the nil-journal path); the first
// failure is retained for the entity to surface via Err.
type Durable[K comparable, V any] struct {
	*Sharded[K, V]
	table string
	j     Journal
	kc    Codec[K]
	vc    Codec[V]

	errMu sync.Mutex
	err   error
}

// NewDurable wraps s. A nil journal disables journaling entirely.
func NewDurable[K comparable, V any](s *Sharded[K, V], table string, j Journal, kc Codec[K], vc Codec[V]) *Durable[K, V] {
	return &Durable[K, V]{Sharded: s, table: table, j: j, kc: kc, vc: vc}
}

// Table returns the journal table name.
func (d *Durable[K, V]) Table() string { return d.table }

// Err returns the first journaling or codec failure, if any.
func (d *Durable[K, V]) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// fail retains the first error.
func (d *Durable[K, V]) fail(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// logSet journals one set (call under the key's shard lock).
func (d *Durable[K, V]) logSet(k K, v V) {
	kb, err := d.kc.Enc(k)
	if err != nil {
		d.fail(fmt.Errorf("store: %s key encode: %w", d.table, err))
		return
	}
	vb, err := d.vc.Enc(v)
	if err != nil {
		d.fail(fmt.Errorf("store: %s value encode: %w", d.table, err))
		return
	}
	d.fail(d.j.LogSet(d.table, kb, vb))
}

// logDelete journals one delete (call under the key's shard lock).
func (d *Durable[K, V]) logDelete(k K) {
	kb, err := d.kc.Enc(k)
	if err != nil {
		d.fail(fmt.Errorf("store: %s key encode: %w", d.table, err))
		return
	}
	d.fail(d.j.LogDelete(d.table, kb))
}

// Set stores and journals v under k.
func (d *Durable[K, V]) Set(k K, v V) {
	if d.j == nil {
		d.Sharded.Set(k, v)
		return
	}
	d.Sharded.Compute(k, func(V, bool) (V, Op) {
		d.logSet(k, v)
		return v, OpSet
	})
}

// Insert stores and journals v under k when absent.
func (d *Durable[K, V]) Insert(k K, v V) bool {
	if d.j == nil {
		return d.Sharded.Insert(k, v)
	}
	inserted := false
	d.Sharded.Compute(k, func(cur V, exists bool) (V, Op) {
		if exists {
			return cur, OpKeep
		}
		inserted = true
		d.logSet(k, v)
		return v, OpSet
	})
	return inserted
}

// GetOrInsert returns the value under k, inserting (and journaling) mk()
// when absent.
func (d *Durable[K, V]) GetOrInsert(k K, mk func() V) V {
	if d.j == nil {
		return d.Sharded.GetOrInsert(k, mk)
	}
	v, _ := d.Sharded.Compute(k, func(cur V, exists bool) (V, Op) {
		if exists {
			return cur, OpKeep
		}
		v := mk()
		d.logSet(k, v)
		return v, OpSet
	})
	return v
}

// Delete removes (and journals) the entry under k.
func (d *Durable[K, V]) Delete(k K) bool {
	if d.j == nil {
		return d.Sharded.Delete(k)
	}
	deleted := false
	d.Sharded.Compute(k, func(cur V, exists bool) (V, Op) {
		if !exists {
			return cur, OpKeep
		}
		deleted = true
		d.logDelete(k)
		return cur, OpDelete
	})
	return deleted
}

// GetAndDelete removes (and journals) and returns the entry under k.
func (d *Durable[K, V]) GetAndDelete(k K) (V, bool) {
	if d.j == nil {
		return d.Sharded.GetAndDelete(k)
	}
	var out V
	found := false
	d.Sharded.Compute(k, func(cur V, exists bool) (V, Op) {
		if !exists {
			return cur, OpKeep
		}
		out, found = cur, true
		d.logDelete(k)
		return cur, OpDelete
	})
	return out, found
}

// Compute runs f under the shard lock and journals the resulting set or
// delete before the lock is released.
func (d *Durable[K, V]) Compute(k K, f func(cur V, exists bool) (V, Op)) (V, bool) {
	if d.j == nil {
		return d.Sharded.Compute(k, f)
	}
	return d.Sharded.Compute(k, func(cur V, exists bool) (V, Op) {
		next, op := f(cur, exists)
		switch op {
		case OpSet:
			d.logSet(k, next)
		case OpDelete:
			if exists {
				d.logDelete(k)
			}
		}
		return next, op
	})
}

// ComputeIfPresent is Compute for existing entries only.
func (d *Durable[K, V]) ComputeIfPresent(k K, f func(cur V) (V, Op)) (V, bool) {
	if d.j == nil {
		return d.Sharded.ComputeIfPresent(k, f)
	}
	return d.Sharded.ComputeIfPresent(k, func(cur V) (V, Op) {
		next, op := f(cur)
		switch op {
		case OpSet:
			d.logSet(k, next)
		case OpDelete:
			d.logDelete(k)
		}
		return next, op
	})
}

// ApplySet decodes and applies a replayed set without journaling.
func (d *Durable[K, V]) ApplySet(key, val []byte) error {
	k, err := d.kc.Dec(key)
	if err != nil {
		return fmt.Errorf("store: %s replay key: %w", d.table, err)
	}
	v, err := d.vc.Dec(val)
	if err != nil {
		return fmt.Errorf("store: %s replay value: %w", d.table, err)
	}
	d.Sharded.Set(k, v)
	return nil
}

// ApplyDelete decodes and applies a replayed delete without journaling.
func (d *Durable[K, V]) ApplyDelete(key []byte) error {
	k, err := d.kc.Dec(key)
	if err != nil {
		return fmt.Errorf("store: %s replay key: %w", d.table, err)
	}
	d.Sharded.Delete(k)
	return nil
}

// EmitAll streams the store's current entries as encoded set mutations —
// the snapshot writer's per-table feed.
func (d *Durable[K, V]) EmitAll(emit func(key, val []byte) error) error {
	var failed error
	d.Sharded.Range(func(k K, v V) bool {
		kb, err := d.kc.Enc(k)
		if err != nil {
			failed = fmt.Errorf("store: %s snapshot key encode: %w", d.table, err)
			return false
		}
		vb, err := d.vc.Enc(v)
		if err != nil {
			failed = fmt.Errorf("store: %s snapshot value encode: %w", d.table, err)
			return false
		}
		if err := emit(kb, vb); err != nil {
			failed = err
			return false
		}
		return true
	})
	return failed
}
