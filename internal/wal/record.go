package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is a mutation kind inside a record.
type Op byte

// Mutation operations.
const (
	OpSet    Op = 1
	OpDelete Op = 2
)

// Mutation is one table mutation. A WAL record is a batch of mutations
// applied atomically on replay: either the whole record passes its CRC and
// every mutation applies, or the record is discarded whole — multi-store
// protocol commits (mint a coin and remember its buyer; re-bind and record
// the relinquishment proof) journal as one batch so a crash can never
// half-apply them.
//
// Values are full states, not deltas, so re-applying a mutation is
// idempotent — the property that lets snapshots race concurrent appends
// (see Log.Snapshot).
type Mutation struct {
	Table string
	Op    Op
	Key   []byte
	Val   []byte // nil for OpDelete
}

// Set builds a set mutation.
func Set(table string, key, val []byte) Mutation {
	return Mutation{Table: table, Op: OpSet, Key: key, Val: val}
}

// Delete builds a delete mutation.
func Delete(table string, key []byte) Mutation {
	return Mutation{Table: table, Op: OpDelete, Key: key}
}

// EncodeBatch serializes mutations into one record payload: a uvarint count
// followed by, per mutation, uvarint-prefixed table and key, the op byte,
// and (for sets) a uvarint-prefixed value. The encoding is deterministic —
// byte-identical for equal input — so the journal round-trip suite can
// assert stability.
func EncodeBatch(muts []Mutation) []byte {
	size := binary.MaxVarintLen64
	for _, m := range muts {
		size += 2*binary.MaxVarintLen64 + len(m.Table) + len(m.Key) + 1
		if m.Op == OpSet {
			size += binary.MaxVarintLen64 + len(m.Val)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		buf = binary.AppendUvarint(buf, uint64(len(m.Table)))
		buf = append(buf, m.Table...)
		buf = append(buf, byte(m.Op))
		buf = binary.AppendUvarint(buf, uint64(len(m.Key)))
		buf = append(buf, m.Key...)
		if m.Op == OpSet {
			buf = binary.AppendUvarint(buf, uint64(len(m.Val)))
			buf = append(buf, m.Val...)
		}
	}
	return buf
}

// errTruncatedBatch reports a syntactically short batch payload. It should
// be unreachable for CRC-validated records; replay surfaces it as corruption.
var errTruncatedBatch = errors.New("wal: truncated mutation batch")

// DecodeBatch inverts EncodeBatch.
func DecodeBatch(p []byte) ([]Mutation, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errTruncatedBatch
	}
	p = p[n:]
	if count > uint64(len(p)) { // each mutation takes >= 1 byte
		return nil, fmt.Errorf("wal: batch claims %d mutations in %d bytes", count, len(p))
	}
	muts := make([]Mutation, 0, count)
	readBlob := func() ([]byte, error) {
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)-w) {
			return nil, errTruncatedBatch
		}
		blob := p[w : w+int(n)]
		p = p[w+int(n):]
		return blob, nil
	}
	for i := uint64(0); i < count; i++ {
		table, err := readBlob()
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, errTruncatedBatch
		}
		op := Op(p[0])
		p = p[1:]
		key, err := readBlob()
		if err != nil {
			return nil, err
		}
		m := Mutation{Table: string(table), Op: op, Key: append([]byte(nil), key...)}
		switch op {
		case OpSet:
			val, err := readBlob()
			if err != nil {
				return nil, err
			}
			m.Val = append([]byte(nil), val...)
		case OpDelete:
		default:
			return nil, fmt.Errorf("wal: unknown mutation op %d", op)
		}
		muts = append(muts, m)
	}
	return muts, nil
}
