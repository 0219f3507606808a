package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame layout (PROTOCOL.md, "Wire format"). Every frame is
//
//	u32 length        big-endian byte count of everything after it
//	u16 magic         0x5750 ("WP")
//	u8  version       1
//	u8  kind          request / reply
//	u8  flags         traced / error reply (bit 1 reserved)
//	u64 reqID         big-endian; pairs replies with requests on a mux
//	uvarint tag       registered type tag; 0 = nil payload
//	[kind=request]    from address  (uvarint-prefixed string)
//	[flags&Traced]    trace ID, span ID  (uvarint-prefixed strings)
//	[flags&Error]     error message, error code  (uvarint-prefixed strings)
//	payload           codec bytes for tag
//
// A connection opens with the 4-byte Preamble, the protocol-version check:
// a listener drops any connection whose first four bytes differ.

// Version is the frame-format version carried in the preamble and every
// frame header.
const Version = 1

// Preamble opens every connection: a zero byte, "WP" (the per-frame
// magic), and the frame-format version.
var Preamble = [4]byte{0x00, 'W', 'P', Version}

const (
	frameMagic0 = 'W'
	frameMagic1 = 'P'

	// lenSize is the width of the leading length field.
	lenSize = 4
	// minFrameSize is the smallest legal post-length frame: magic(2) +
	// version(1) + kind(1) + flags(1) + reqID(8) + tag(>=1).
	minFrameSize = 14
)

// MaxFrameSize bounds one frame (excluding the length field). The limit is
// checked before the frame body is allocated, so a corrupt or hostile
// length prefix cannot trigger a giant allocation.
const MaxFrameSize = 16 << 20

// Frame kinds.
const (
	// KindRequest frames carry a request toward a listener.
	KindRequest = 1
	// KindReply frames carry the response for ReqID back to the caller.
	KindReply = 2
)

// Frame flags.
const (
	// FlagTraced marks frames carrying obs trace identity.
	FlagTraced = 1 << 0
	// Bit 1 is reserved: ParseFrame rejects it as an unknown flag.

	// FlagError marks replies carrying an error instead of a payload.
	FlagError = 1 << 2

	knownFlags = FlagTraced | FlagError
)

// Frame is one parsed (or to-be-encoded) frame. Payload aliases the parse
// input; copy it before reusing the buffer.
type Frame struct {
	Kind  byte
	Flags byte
	ReqID uint64
	Tag   uint64

	// From is the caller's listen address (requests only).
	From string
	// TraceID/SpanID are the obs trace identity (FlagTraced).
	TraceID, SpanID string
	// ErrMsg/ErrCode carry a remote error (replies with FlagError).
	ErrMsg, ErrCode string

	Payload []byte
}

// AppendFrame appends the complete length-prefixed frame for f to dst,
// invoking payload (when non-nil) to append the payload bytes in place.
// On payload error the partial frame is rolled back.
func AppendFrame(dst []byte, f *Frame, payload func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, frameMagic0, frameMagic1, Version, f.Kind, f.Flags)
	dst = binary.BigEndian.AppendUint64(dst, f.ReqID)
	dst = binary.AppendUvarint(dst, f.Tag)
	if f.Kind == KindRequest {
		dst = AppendString(dst, f.From)
	}
	if f.Flags&FlagTraced != 0 {
		dst = AppendString(dst, f.TraceID)
		dst = AppendString(dst, f.SpanID)
	}
	if f.Flags&FlagError != 0 {
		dst = AppendString(dst, f.ErrMsg)
		dst = AppendString(dst, f.ErrCode)
	}
	if payload != nil {
		var err error
		if dst, err = payload(dst); err != nil {
			return dst[:start], err
		}
	}
	n := len(dst) - start - lenSize
	if n > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ParseFrame parses one frame body (the bytes after the length field). The
// returned Frame's Payload aliases body; header strings are copied.
func ParseFrame(body []byte) (Frame, error) {
	var f Frame
	if len(body) < minFrameSize {
		return f, fmt.Errorf("%w: %d-byte frame", ErrTruncated, len(body))
	}
	if body[0] != frameMagic0 || body[1] != frameMagic1 {
		return f, fmt.Errorf("%w: bad magic 0x%02x%02x", ErrMalformed, body[0], body[1])
	}
	if body[2] != Version {
		return f, fmt.Errorf("%w: unsupported frame version %d", ErrMalformed, body[2])
	}
	f.Kind = body[3]
	if f.Kind != KindRequest && f.Kind != KindReply {
		return f, fmt.Errorf("%w: unknown frame kind %d", ErrMalformed, f.Kind)
	}
	f.Flags = body[4]
	if f.Flags&^byte(knownFlags) != 0 {
		return f, fmt.Errorf("%w: unknown flags 0x%02x", ErrMalformed, f.Flags)
	}
	if f.Flags&FlagError != 0 && f.Kind != KindReply {
		return f, fmt.Errorf("%w: error flag on request", ErrMalformed)
	}
	d := NewDecoder(body[5:])
	var err error
	if f.ReqID, err = d.U64(); err != nil {
		return f, err
	}
	if f.Tag, err = d.Uvarint(); err != nil {
		return f, err
	}
	if f.Kind == KindRequest {
		if f.From, err = d.String(); err != nil {
			return f, fmt.Errorf("from address: %w", err)
		}
	}
	if f.Flags&FlagTraced != 0 {
		if f.TraceID, err = d.String(); err != nil {
			return f, fmt.Errorf("trace id: %w", err)
		}
		if f.SpanID, err = d.String(); err != nil {
			return f, fmt.Errorf("span id: %w", err)
		}
	}
	if f.Flags&FlagError != 0 {
		if f.ErrMsg, err = d.String(); err != nil {
			return f, fmt.Errorf("error message: %w", err)
		}
		if f.ErrCode, err = d.String(); err != nil {
			return f, fmt.Errorf("error code: %w", err)
		}
	}
	f.Payload = d.buf[d.off:]
	// A frame that declares no payload must carry none: tag 0 means nil,
	// and error replies carry the error fields alone.
	if (f.Flags&FlagError != 0 || f.Tag == 0) && len(f.Payload) > 0 {
		return f, fmt.Errorf("%w: %d payload bytes on a payload-less frame", ErrMalformed, len(f.Payload))
	}
	return f, nil
}

// ReadFrame reads one length-prefixed frame body from r into scratch
// (grown as needed) and returns the body slice plus the (possibly grown)
// scratch for reuse. onBody, when non-nil, runs after the length is known
// and before the body is read — transports hook per-phase read deadlines
// there. The length is validated against MaxFrameSize before any
// allocation.
func ReadFrame(r io.Reader, scratch []byte, onBody func(n int)) (body, newScratch []byte, err error) {
	var lenBuf [lenSize]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, scratch, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n > MaxFrameSize {
		return nil, scratch, fmt.Errorf("%w: declared %d bytes", ErrOversized, n)
	}
	if n < minFrameSize {
		return nil, scratch, fmt.Errorf("%w: declared %d bytes", ErrMalformed, n)
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:cap(scratch)]
	if onBody != nil {
		onBody(n)
	}
	if _, err := io.ReadFull(r, scratch[:n]); err != nil {
		return nil, scratch, err
	}
	return scratch[:n], scratch, nil
}
