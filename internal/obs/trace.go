package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Per-party tracing. Every span is the root of its own trace, minted by the
// party that records it: nothing ties a span to a goroutine, and no trace
// identity crosses the wire. WhoPay's anonymity rests on the owner and the
// payee being unable to link a payer's hops (PROTOCOL.md, DESIGN.md §5), so
// an identifier the payer shared with them would undo it. An operation that
// calls another inside one party (a channel settle that purchases and issues
// coins) records both as separate spans; the outer span's duration covers
// the inner one.

// ID generation: an 8-byte random process base (crypto/rand, drawn once)
// plus an atomic counter, hex-encoded. Unique across processes with
// overwhelming probability, and allocation-light per span.
var (
	idBase [8]byte
	idInit sync.Once
	idCtr  atomic.Uint64
)

func newID() string {
	idInit.Do(func() {
		if _, err := rand.Read(idBase[:]); err != nil {
			// Fall back to a counter-only scheme; uniqueness within the
			// process still holds, which is all single-process tests need.
			binary.BigEndian.PutUint64(idBase[:], 0x9e3779b97f4a7c15)
		}
	})
	var b [16]byte
	copy(b[:8], idBase[:])
	binary.BigEndian.PutUint64(b[8:], idCtr.Add(1))
	return hex.EncodeToString(b[:])
}

// SpanRecord is one completed operation, as stored in the ring and
// serialized by /traces. TraceID is unique per span and never leaves the
// process that minted it.
type SpanRecord struct {
	TraceID  string        `json:"trace_id"`
	Entity   string        `json:"entity"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// DefaultTraceCap bounds the in-memory span ring: new records overwrite
// the oldest once full, so a long-running daemon's trace memory stays
// constant while the freshest operations remain inspectable.
const DefaultTraceCap = 4096

// Tracer records completed spans into a bounded ring.
type Tracer struct {
	mu   sync.Mutex
	ring []SpanRecord
	next int
	n    int
}

// NewTracer returns a tracer retaining the last cap spans (DefaultTraceCap
// if cap <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]SpanRecord, capacity)}
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Spans returns the retained records, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	if t.n == len(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.n]...)
	}
	return out
}
