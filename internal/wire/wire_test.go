package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestScalarRoundTrips(t *testing.T) {
	var dst []byte
	dst = AppendUvarint(dst, 0)
	dst = AppendUvarint(dst, 300)
	dst = AppendInt(dst, -7)
	dst = AppendInt(dst, 1<<40)
	dst = AppendU64(dst, 0xdeadbeefcafe)
	dst = AppendBytes(dst, []byte("abc"))
	dst = AppendBytes(dst, nil)
	dst = AppendString(dst, "hello")
	dst = AppendBool(dst, true)
	dst = AppendBool(dst, false)
	dst = AppendRaw(dst, []byte{9, 9})

	d := NewDecoder(dst)
	if v, err := d.Uvarint(); err != nil || v != 0 {
		t.Fatalf("uvarint 0: %v %v", v, err)
	}
	if v, err := d.Uvarint(); err != nil || v != 300 {
		t.Fatalf("uvarint 300: %v %v", v, err)
	}
	if v, err := d.Int(); err != nil || v != -7 {
		t.Fatalf("int -7: %v %v", v, err)
	}
	if v, err := d.Int(); err != nil || v != 1<<40 {
		t.Fatalf("int 2^40: %v %v", v, err)
	}
	if v, err := d.U64(); err != nil || v != 0xdeadbeefcafe {
		t.Fatalf("u64: %x %v", v, err)
	}
	if b, err := d.Bytes(); err != nil || string(b) != "abc" {
		t.Fatalf("bytes: %q %v", b, err)
	}
	if b, err := d.Bytes(); err != nil || b != nil {
		t.Fatalf("empty bytes must decode nil: %#v %v", b, err)
	}
	if s, err := d.String(); err != nil || s != "hello" {
		t.Fatalf("string: %q %v", s, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("bool true: %v %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("bool false: %v %v", v, err)
	}
	var raw [2]byte
	if err := d.Fixed(raw[:]); err != nil || raw != [2]byte{9, 9} {
		t.Fatalf("fixed: %v %v", raw, err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDecoderRejectsCorruption(t *testing.T) {
	cases := map[string]func(d *Decoder) error{
		"truncated uvarint":  func(d *Decoder) error { _, err := d.Uvarint(); return err },
		"truncated u64":      func(d *Decoder) error { _, err := d.U64(); return err },
		"truncated bytes":    func(d *Decoder) error { _, err := d.Bytes(); return err },
		"oversized declared": func(d *Decoder) error { _, err := d.Bytes(); return err },
		"bad bool":           func(d *Decoder) error { _, err := d.Bool(); return err },
		"non-minimal varint": func(d *Decoder) error { _, err := d.Uvarint(); return err },
	}
	inputs := map[string][]byte{
		"truncated uvarint":  {0x80},
		"truncated u64":      {1, 2, 3},
		"truncated bytes":    {5, 'a', 'b'},
		"oversized declared": {0xff, 0xff, 0xff, 0xff, 0x0f, 'x'},
		"bad bool":           {2},
		"non-minimal varint": {0x80, 0x00},
	}
	for name, read := range cases {
		d := NewDecoder(inputs[name])
		if err := read(&d); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
	}
	// A declared length larger than the input must fail before allocating.
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := d.Bytes(); err == nil {
		t.Error("giant declared length accepted")
	}
}

func TestStringsAndDecodeExact(t *testing.T) {
	enc := AppendStrings(nil, []string{"a", "", "bc"})
	got, err := DecodeExact(enc, DecodeStrings[string])
	if err != nil || len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "bc" {
		t.Fatalf("strings round trip: %q %v", got, err)
	}
	if got, err := DecodeExact(AppendStrings[string](nil, nil), DecodeStrings[string]); err != nil || got != nil {
		t.Fatalf("empty list must decode nil: %#v %v", got, err)
	}
	if _, err := DecodeExact(append(enc, 0), DecodeStrings[string]); err == nil {
		t.Error("DecodeExact accepted trailing bytes")
	}
	// A count larger than the remaining input fails before allocating.
	if _, err := DecodeExact([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, DecodeStrings[string]); err == nil {
		t.Error("oversized string count accepted")
	}
}

func TestDoneRejectsTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Byte(); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func frameEqual(a, b *Frame) bool {
	return a.Kind == b.Kind && a.Flags == b.Flags && a.ReqID == b.ReqID &&
		a.Tag == b.Tag && a.From == b.From &&
		a.ErrMsg == b.ErrMsg && a.ErrCode == b.ErrCode &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("payload-bytes")
	frames := []Frame{
		{Kind: KindRequest, ReqID: 1, Tag: 7, From: "127.0.0.1:9"},
		{Kind: KindReply, ReqID: 3, Tag: 7},
		{Kind: KindReply, Flags: FlagError, ReqID: 4, ErrMsg: "boom", ErrCode: "x.y"},
		{Kind: KindRequest, ReqID: 5, From: "b:2"}, // nil payload
		{Kind: KindReply, ReqID: 6},                // nil payload
	}
	for i := range frames {
		f := frames[i]
		var pfn func([]byte) ([]byte, error)
		if f.Flags&FlagError == 0 && f.Tag != 0 {
			f.Payload = payload
			pfn = func(dst []byte) ([]byte, error) { return append(dst, payload...), nil }
		}
		enc, err := AppendFrame(nil, &f, pfn)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		body, rest, err := ReadFrame(bytes.NewReader(enc), nil, nil)
		_ = rest
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		got, err := ParseFrame(body)
		if err != nil {
			t.Fatalf("frame %d: parse: %v", i, err)
		}
		if !frameEqual(&got, &f) {
			t.Errorf("frame %d mangled:\n got  %+v\n want %+v", i, got, f)
		}
	}
	// Flag bit 0 is reserved. A frame laid out the way a trace-stamping
	// sender used to write it (trace ID and span ID after From) encodes
	// but must not parse.
	traced := Frame{Kind: KindRequest, Flags: 1 << 0, ReqID: 2, Tag: 7, From: "a:1"}
	enc, err := AppendFrame(nil, &traced, func(dst []byte) ([]byte, error) {
		return append(AppendString(AppendString(dst, "t-1"), "s-1"), payload...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFrame(enc[4:]); err == nil {
		t.Error("frame with reserved flag bit 0 parsed")
	}
}

func TestParseFrameRejects(t *testing.T) {
	good, err := AppendFrame(nil, &Frame{Kind: KindRequest, ReqID: 9, Tag: 3, From: "a:1"},
		func(dst []byte) ([]byte, error) { return append(dst, 1, 2, 3), nil })
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:] // strip length prefix

	mutate := func(mut func(b []byte)) []byte {
		c := append([]byte(nil), body...)
		mut(c)
		return c
	}
	bad := map[string][]byte{
		"short":            body[:5],
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":      mutate(func(b []byte) { b[2] = 99 }),
		"bad kind":         mutate(func(b []byte) { b[3] = 9 }),
		"unknown flags":    mutate(func(b []byte) { b[4] = 0x80 }),
		"reserved bit 0":   mutate(func(b []byte) { b[4] = 1 << 0 }),
		"reserved bit 1":   mutate(func(b []byte) { b[4] = 1 << 1 }),
		"error on request": mutate(func(b []byte) { b[4] = FlagError }),
	}
	for name, in := range bad {
		if _, err := ParseFrame(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Payload bytes on a payload-less frame (tag 0).
	nilFrame, err := AppendFrame(nil, &Frame{Kind: KindReply, ReqID: 1},
		func(dst []byte) ([]byte, error) { return append(dst, 0xaa), nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFrame(nilFrame[4:]); err == nil {
		t.Error("payload on payload-less frame accepted")
	}
}

func TestReadFrameBounds(t *testing.T) {
	// Oversized declared length fails before allocation.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil, nil); !errors.Is(err, ErrOversized) {
		t.Errorf("oversized length: %v", err)
	}
	// Undersized declared length is malformed.
	small := []byte{0, 0, 0, 2, 'W', 'P'}
	if _, _, err := ReadFrame(bytes.NewReader(small), nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("undersized length: %v", err)
	}
	// Truncated body is an IO error.
	trunc := []byte{0, 0, 0, 20, 'W', 'P', 1}
	if _, _, err := ReadFrame(bytes.NewReader(trunc), nil, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: %v", err)
	}
}

func TestAppendFrameRollsBackOversize(t *testing.T) {
	huge := strings.Repeat("x", MaxFrameSize)
	dst := []byte("prefix")
	out, err := AppendFrame(dst, &Frame{Kind: KindReply, ReqID: 1, Tag: 3},
		func(b []byte) ([]byte, error) { return append(b, huge...), nil })
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v", err)
	}
	if string(out) != "prefix" {
		t.Fatalf("partial frame not rolled back: %d bytes", len(out))
	}
}

func TestRegisterConflictsPanic(t *testing.T) {
	type msgA struct{ X int }
	type msgB struct{ X int }
	enc := func(dst []byte, v any) ([]byte, error) { return dst, nil }
	dec := func(d *Decoder) (any, error) { return msgA{}, nil }
	Register(9001, "wiretest.A", msgA{}, enc, dec)
	// Identical re-registration is a no-op.
	Register(9001, "wiretest.A", msgA{}, enc, dec)

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("same name different type", func() {
		Register(9001, "wiretest.A", msgB{}, enc, dec)
	})
	expectPanic("same tag different name", func() {
		Register(9001, "wiretest.A2", msgB{}, enc, dec)
	})
	expectPanic("same type second identity", func() {
		Register(9002, "wiretest.A-again", msgA{}, enc, dec)
	})
	expectPanic("tag zero", func() {
		Register(0, "wiretest.zero", msgB{}, enc, dec)
	})
}

// TestEncodeSteadyStateAllocs holds the pooled-encode guarantee: with a
// warm buffer pool, framing a codec-backed message allocates nothing.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	type ping struct {
		A uint64
		B string
	}
	Register(9100, "wiretest.ping", ping{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ping)
			dst = AppendU64(dst, m.A)
			return AppendString(dst, m.B), nil
		},
		func(d *Decoder) (any, error) {
			var m ping
			var err error
			if m.A, err = d.U64(); err != nil {
				return nil, err
			}
			if m.B, err = d.String(); err != nil {
				return nil, err
			}
			return m, nil
		})
	e, _ := ByTag(9100)
	var msg any = ping{A: 42, B: "steady-state"}
	f := Frame{Kind: KindRequest, ReqID: 1, Tag: e.Tag, From: "127.0.0.1:4242"}
	enc := func(dst []byte) ([]byte, error) { return e.Enc(dst, msg) }
	// Warm the pool so the measured runs reuse one buffer.
	PutBuf(GetBuf())
	allocs := testing.AllocsPerRun(1000, func() {
		buf := GetBuf()
		out, err := AppendFrame(buf, &f, enc)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(out)
	})
	if allocs > 0 {
		t.Errorf("steady-state encode allocates %.1f objects/op, want 0", allocs)
	}
}
