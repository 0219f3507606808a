package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// Fuzz targets for the frame decoder. The transport feeds these functions
// bytes straight off the network, so the bar is absolute: truncated,
// corrupt, oversized, or type-confused input must produce an error — never
// a panic, and never an allocation larger than the input justifies.

func seedFrames(f *testing.F) {
	add := func(fr Frame, pfn func([]byte) ([]byte, error)) {
		enc, err := AppendFrame(nil, &fr, pfn)
		if err == nil {
			f.Add(enc)
		}
	}
	add(Frame{Kind: KindRequest, ReqID: 1, Tag: 7, From: "127.0.0.1:1"},
		func(b []byte) ([]byte, error) { return append(b, 1, 2, 3), nil })
	// Reserved flag bit 0 must be rejected: these are the bytes a sender
	// that stamped its trace ID and span ID after From used to write.
	add(Frame{Kind: KindRequest, Flags: 1 << 0, ReqID: 2, Tag: 9, From: "a:1"},
		func(b []byte) ([]byte, error) {
			return append(AppendString(AppendString(b, "t"), "s"), 0xff), nil
		})
	add(Frame{Kind: KindReply, Flags: FlagError, ReqID: 3, ErrMsg: "m", ErrCode: "c"}, nil)
	// Reserved flag bit 1 must be rejected.
	add(Frame{Kind: KindReply, Flags: 1 << 1, ReqID: 4},
		func(b []byte) ([]byte, error) { return append(b, 0x05, 0x01), nil })
	f.Add([]byte{})
	f.Add([]byte{'W', 'P', 1, KindRequest, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
}

// FuzzParseFrame: arbitrary frame bodies must parse or error, and a body
// that parses must re-encode to itself (the header is canonical).
func FuzzParseFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := ParseFrame(body)
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, &fr, func(b []byte) ([]byte, error) {
			return append(b, fr.Payload...), nil
		})
		if err != nil {
			t.Fatalf("parsed frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re[4:], body) {
			t.Fatalf("non-canonical frame accepted: %d in, %d out", len(body), len(re)-4)
		}
	})
}

// FuzzReadFrame: arbitrary streams (the fuzzer controls the length prefix
// too) must never make ReadFrame allocate beyond MaxFrameSize or panic,
// and whatever it returns must be exactly the declared body.
func FuzzReadFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		var scratch []byte
		r := bytes.NewReader(stream)
		for {
			body, s2, err := ReadFrame(r, scratch, nil)
			scratch = s2
			if err != nil {
				return
			}
			if len(body) > MaxFrameSize {
				t.Fatalf("body %d bytes exceeds MaxFrameSize", len(body))
			}
			// The returned body must be the declared slice of the stream.
			if _, err := ParseFrame(body); err != nil {
				// Malformed content is fine; the framing held.
				continue
			}
		}
	})
}

// TestReadFrameHonorsDeclaredLength pins the framing invariant the fuzz
// target relies on: the body returned is exactly the length the prefix
// declared, independent of what follows in the stream.
func TestReadFrameHonorsDeclaredLength(t *testing.T) {
	frame, err := AppendFrame(nil, &Frame{Kind: KindReply, ReqID: 1, Tag: 2},
		func(b []byte) ([]byte, error) { return append(b, 'x', 'y'), nil })
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte{}, frame...), "trailing-garbage"...)
	body, _, err := ReadFrame(bytes.NewReader(stream), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	declared := binary.BigEndian.Uint32(frame)
	if uint32(len(body)) != declared {
		t.Fatalf("body %d bytes, declared %d", len(body), declared)
	}
}

// TestReadFrameScratchReuse: a grown scratch buffer is reused for the next
// frame instead of reallocating.
func TestReadFrameScratchReuse(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		frame, err := AppendFrame(nil, &Frame{Kind: KindReply, ReqID: uint64(i), Tag: 1},
			func(b []byte) ([]byte, error) { return append(b, bytes.Repeat([]byte{byte(i)}, 100)...), nil })
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	var scratch []byte
	r := bytes.NewReader(stream.Bytes())
	var lastCap int
	for i := 0; ; i++ {
		body, s2, err := ReadFrame(r, scratch, nil)
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("read %d frames, want 3", i)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		scratch = s2
		if i > 0 && cap(scratch) != lastCap {
			t.Fatalf("scratch reallocated between equal-size frames: %d -> %d", lastCap, cap(scratch))
		}
		lastCap = cap(scratch)
		_ = body
	}
}
