// Package wire implements WhoPay's one binary encoding: the length-prefixed
// frame format the TCP transport speaks (see PROTOCOL.md, "Wire format"),
// the fixed-layout encoders for every protocol message, and the helpers the
// journals build their records from (DESIGN.md §10).
//
// Every type is encoded explicitly under a small integer tag: varint ints,
// length-prefixed byte strings, no reflection, and pooled encode buffers so
// a steady-state encode allocates nothing — the per-message cost the
// paper's real-time double-spend checks (§5) and scalability analysis (§6)
// require to stay cheap. A type with no registered codec cannot be sent.
//
// Decoding is defensive by construction: every length is bounds-checked
// against the remaining input before any allocation, so truncated, corrupt,
// oversized, or type-confused frames error out without panicking or
// over-allocating (fuzz_test.go holds that line).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Errors returned by decoders.
var (
	// ErrTruncated is returned when the input ends before a declared field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrMalformed is returned for structurally invalid input.
	ErrMalformed = errors.New("wire: malformed input")
	// ErrOversized is returned for frames exceeding MaxFrameSize.
	ErrOversized = errors.New("wire: frame exceeds size limit")
	// ErrUnknownTag is returned when no codec is registered for a type tag.
	ErrUnknownTag = errors.New("wire: unknown type tag")
)

// Append helpers: the encode side of the codec. All of them append to dst
// and return the extended slice, so encoders compose without intermediate
// allocations.

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt appends v in zigzag varint encoding (small magnitudes of either
// sign stay short).
func AppendInt(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendU64 appends v as 8 fixed big-endian bytes (sequence numbers and
// request IDs, where varint would leak length side-channels into framing).
func AppendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a uvarint length prefix followed by s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendRaw appends b with no length prefix (fixed-width fields whose
// length both sides know, e.g. 32-byte ring keys).
func AppendRaw(dst, b []byte) []byte { return append(dst, b...) }

// AppendList appends a uvarint count followed by each element of xs,
// encoded by app (an AppendWire-shaped method expression fits). Every
// element must encode to at least one byte.
func AppendList[T any](dst []byte, xs []T, app func(*T, []byte) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for i := range xs {
		dst = app(&xs[i], dst)
	}
	return dst
}

// DecodeList reads a list written by AppendList, decoding each element with
// dec; an empty list decodes as nil. Every element takes at least one byte,
// so a count above the remaining input is rejected before allocating, and
// the up-front allocation is capped so a large element type cannot multiply
// a hostile count into a huge one.
func DecodeList[T any](d *Decoder, dec func(*Decoder) (T, error)) ([]T, error) {
	n, err := d.Uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(d.Len()) {
		return nil, fmt.Errorf("%w: %d elements declared, %d bytes remain", ErrMalformed, n, d.Len())
	}
	out := make([]T, 0, min(n, 64))
	for i := uint64(0); i < n; i++ {
		v, err := dec(d)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// AppendStrings appends a list of length-prefixed strings (AppendList).
func AppendStrings[S ~string](dst []byte, ss []S) []byte {
	return AppendList(dst, ss, func(s *S, b []byte) []byte { return AppendString(b, string(*s)) })
}

// DecodeStrings reads a list written by AppendStrings.
func DecodeStrings[S ~string](d *Decoder) ([]S, error) {
	return DecodeList(d, func(d *Decoder) (S, error) {
		s, err := d.String()
		return S(s), err
	})
}

// DecodeExact decodes b with dec and rejects trailing bytes, so a value is
// read back exactly as it was written; on error the zero value is returned.
// Journal records decode through it.
func DecodeExact[T any](b []byte, dec func(*Decoder) (T, error)) (T, error) {
	d := NewDecoder(b)
	v, err := dec(&d)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// Decoder consumes a fully buffered encoded value. It is a value type;
// methods take a pointer so position advances. Every read bounds-checks
// before touching (or allocating for) the input.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over b. The decoder does not copy b; byte-
// and string-valued reads copy out of it, so b may be reused once decoding
// finishes.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// Len reports how many bytes remain.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Done verifies the input was consumed exactly: trailing bytes mean the
// payload does not match the codec that decoded it.
func (d *Decoder) Done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	return nil
}

// Uvarint reads an unsigned varint. Non-minimal encodings (a value padded
// with continuation bytes, e.g. 0x80 0x00 for zero) are rejected so every
// value has exactly one wire form — decode→re-encode is byte-identical,
// and an attacker cannot mint distinct byte strings for the same message.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: uvarint overflow", ErrMalformed)
	}
	if n > 1 && v>>(7*(n-1)) == 0 {
		return 0, fmt.Errorf("%w: non-minimal uvarint", ErrMalformed)
	}
	d.off += n
	return v, nil
}

// Uvarint32 reads an unsigned varint that must fit in 32 bits: a larger
// value is malformed rather than truncated, which would let two inputs
// decode to one value.
func (d *Decoder) Uvarint32() (uint32, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d overflows uint32", ErrMalformed, v)
	}
	return uint32(v), nil
}

// Int reads a zigzag varint (minimal encoding enforced, as Uvarint).
func (d *Decoder) Int() (int64, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// U64 reads 8 fixed big-endian bytes.
func (d *Decoder) U64() (uint64, error) {
	if d.Len() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Byte reads one byte.
func (d *Decoder) Byte() (byte, error) {
	if d.Len() < 1 {
		return 0, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// Bool reads one strict boolean byte (anything but 0/1 is malformed, so a
// flipped bit cannot silently become "true").
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bad bool byte 0x%02x", ErrMalformed, b)
	}
}

// Bytes reads a length-prefixed byte string into a fresh slice. A zero
// length decodes as nil, so empty and nil share one encoding and
// decode→re-encode stays byte-identical. The declared length is
// checked against the remaining input before allocating, so a corrupt
// prefix cannot trigger a huge allocation.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(d.Len()) {
		return nil, fmt.Errorf("%w: declared %d bytes, %d remain", ErrTruncated, n, d.Len())
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.Len()) {
		return "", fmt.Errorf("%w: declared %d bytes, %d remain", ErrTruncated, n, d.Len())
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Fixed fills out (a fixed-width field) from the input without allocating.
func (d *Decoder) Fixed(out []byte) error {
	if d.Len() < len(out) {
		return ErrTruncated
	}
	copy(out, d.buf[d.off:])
	d.off += len(out)
	return nil
}

// Encode buffer pool: Call/reply encoding runs get → append → write →
// put, so steady-state encodes allocate nothing. Oversized buffers are
// dropped rather than pooled, so one huge message cannot pin memory.

const (
	pooledBufCap    = 4 << 10
	maxPooledBufCap = 1 << 20
)

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, pooledBufCap)
		return &b
	},
}

// hdrPool recycles the *[]byte boxes bufPool shuttles around: without it,
// every PutBuf would heap-allocate a fresh slice header to escape into the
// pool, costing exactly the one allocation per encode the pool exists to
// avoid.
var hdrPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// GetBuf returns an empty pooled buffer.
func GetBuf() []byte {
	p := bufPool.Get().(*[]byte)
	b := (*p)[:0]
	*p = nil
	hdrPool.Put(p)
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBufCap {
		return
	}
	p := hdrPool.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}
