package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/sig"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Every type the system writes — the TCP wire messages and the journaled
// record forms (DESIGN.md §10) — goes through internal/wire and must encode
// deterministically: encode → decode → encode reproduces the bytes exactly,
// and the decoded value equals the original. Maps would break the first
// property, which is why the journaled forms flatten them into sorted
// parallel slices; this suite is the regression net for both.

// fillValue populates every settable field of v with distinct non-zero
// values drawn from a deterministic counter, so a round trip exercises each
// field rather than its zero encoding.
func fillValue(v reflect.Value, ctr *int, depth int) {
	if depth > 8 {
		return
	}
	switch v.Kind() {
	case reflect.String:
		*ctr++
		v.SetString(fmt.Sprintf("s%d", *ctr))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*ctr++
		v.SetInt(int64(*ctr))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*ctr++
		v.SetUint(uint64(*ctr % 200))
	case reflect.Float32, reflect.Float64:
		*ctr++
		v.SetFloat(float64(*ctr))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillValue(s.Index(i), ctr, depth+1)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i), ctr, depth+1)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		fillValue(k, ctr, depth+1)
		e := reflect.New(v.Type().Elem()).Elem()
		fillValue(e, ctr, depth+1)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Ptr:
		p := reflect.New(v.Type().Elem())
		fillValue(p.Elem(), ctr, depth+1)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillValue(f, ctr, depth+1)
			}
		}
	case reflect.Interface:
		// Left nil: an interface field needs a concrete registered type
		// (TestForwardMsgInnerParity covers the one message that has one).
	}
}

// filled returns a fillValue-populated value of proto's type.
func filled(proto any) any {
	v := reflect.New(reflect.TypeOf(proto)).Elem()
	ctr := 0
	fillValue(v, &ctr, 0)
	return v.Interface()
}

// codec is one written type: its zero value and the encode/decode pair the
// system uses for it.
type codec struct {
	proto any
	enc   func(v any) ([]byte, error)
	dec   func(b []byte) (any, error)
}

// messageCodec is the registered wire codec of a protocol message.
func messageCodec(proto any) codec {
	return codec{
		proto: proto,
		enc: func(v any) ([]byte, error) {
			e, ok := wire.ByValue(v)
			if !ok {
				return nil, fmt.Errorf("no wire codec for %T", v)
			}
			return e.Enc(nil, v)
		},
		dec: func(b []byte) (any, error) {
			e, _ := wire.ByValue(proto)
			return wire.Decode(e.Tag, b)
		},
	}
}

// recordCodec is a journal record's append method and decode function, as
// replay runs it (wire.DecodeExact).
func recordCodec[T any](app func(*T, []byte) []byte, dec func(*wire.Decoder) (T, error)) codec {
	var zero T
	return codec{
		proto: zero,
		enc:   func(v any) ([]byte, error) { t := v.(T); return app(&t, nil), nil },
		dec:   func(b []byte) (any, error) { return wire.DecodeExact(b, dec) },
	}
}

func appendStrings[S ~string](ss *[]S, dst []byte) []byte { return wire.AppendStrings(dst, *ss) }

// journalRecords lists every journaled record type: broker, peer, and DHT.
func journalRecords() []codec {
	return []codec{
		recordCodec((*keyPairRec).appendWire, decodeKeyPairRec),
		recordCodec((*depositRec).appendWire, decodeDepositRec),
		recordCodec((*claimsRec).appendWire, decodeClaimsRec),
		recordCodec((*intentRec).appendWire, decodeIntentRec),
		recordCodec((*caseRec).appendWire, decodeCaseRec),
		recordCodec((*ownedRec).appendWire, decodeOwnedRec),
		recordCodec((*heldRec).appendWire, decodeHeldRec),
		recordCodec((*settleRec).appendWire, decodeSettleRec),
		recordCodec((*settledRec).appendWire, decodeSettledRec),
		recordCodec((*coin.Coin).AppendWire, coin.DecodeWireCoin),
		recordCodec((*coin.Binding).AppendWire, coin.DecodeWireBinding),
		recordCodec(appendStrings[coin.ID], wire.DecodeStrings[coin.ID]), // sync table
		recordCodec((*dht.Record).AppendWire, dht.DecodeWireRecord),
		recordCodec(appendStrings[string], wire.DecodeStrings[string]), // DHT watchers
	}
}

// roundTrip checks that v encodes → decodes → re-encodes byte-identically
// and decodes to a value deeply equal to v.
func roundTrip(t *testing.T, c codec, v any) {
	t.Helper()
	first, err := c.enc(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := c.dec(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := c.enc(decoded)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("encode→decode→encode not byte-identical: %d vs %d bytes", len(first), len(second))
	}
	if !reflect.DeepEqual(decoded, v) {
		t.Errorf("decoded value differs from the original:\n got  %#v\n want %#v", decoded, v)
	}
}

// TestGobRoundTripByteStable round-trips a filled value of every wire
// message and every journal record. (The name predates the single
// encoding; the per-type subtests keep their names.)
func TestGobRoundTripByteStable(t *testing.T) {
	RegisterWireTypes()
	var codecs []codec
	for _, m := range wireMessages() {
		codecs = append(codecs, messageCodec(m))
	}
	for _, c := range append(codecs, journalRecords()...) {
		c := c
		t.Run(reflect.TypeOf(c.proto).String(), func(t *testing.T) {
			roundTrip(t, c, filled(c.proto))
		})
	}
}

// FuzzJournalRecordDecode drives arbitrary bytes through every journal
// record decoder. Journal bytes come from disk, input from outside the
// program: a decoder must return an error or a value — never panic — and a
// successful decode must re-encode byte-identically.
func FuzzJournalRecordDecode(f *testing.F) {
	codecs := journalRecords()
	for _, c := range codecs {
		if enc, err := c.enc(filled(c.proto)); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			v, err := c.dec(data)
			if err != nil {
				continue
			}
			re, err := c.enc(v)
			if err != nil {
				t.Fatalf("%T: decoded value failed to re-encode: %v", c.proto, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%T: non-canonical input decoded: %d in, %d out", c.proto, len(data), len(re))
			}
		}
	})
}

// gobKeyRecord is a key record as builds before the wire-encoded journal
// wrote it: a gob stream of {Public: "pub", Private: "priv"}. Its two gob
// messages are each length-prefixed, so they would parse as exactly two
// byte strings — a bare {public, private} layout would accept it.
var gobKeyRecord = []byte{
	0x2e, 0x7f, 0x03, 0x01, 0x01, 0x0a, 0x6b, 0x65, 0x79, 0x50, 0x61, 0x69,
	0x72, 0x52, 0x65, 0x63, 0x01, 0xff, 0x80, 0x00, 0x01, 0x02, 0x01, 0x06,
	0x50, 0x75, 0x62, 0x6c, 0x69, 0x63, 0x01, 0x0a, 0x00, 0x01, 0x07, 0x50,
	0x72, 0x69, 0x76, 0x61, 0x74, 0x65, 0x01, 0x0a, 0x00, 0x00, 0x00, 0x0e,
	0xff, 0x80, 0x01, 0x03, 0x70, 0x75, 0x62, 0x01, 0x04, 0x70, 0x72, 0x69,
	0x76, 0x00,
}

// TestOldFormatJournalRejected: a journal in the old record format fails
// recovery with an error naming the table of the record it could not read;
// nothing from it is applied.
func TestOldFormatJournalRejected(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: dir, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(wal.EncodeBatch([]wal.Mutation{wal.Set(tblMeta, []byte(metaKeysKey), gobKeyRecord)})); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, fixtureOpts{})
	cfg := f.brokerCfg
	cfg.Addr = "broker-old-format"
	cfg.Persistence = &wal.Config{Dir: dir, Policy: wal.FsyncAlways}
	_, err = RecoverBroker(cfg)
	if err == nil || !strings.Contains(err.Error(), "replaying meta record") {
		t.Fatalf("recovery of an old-format journal: err = %v, want a meta-table replay error", err)
	}
}

// TestRecoveryRefusesKeysOfAnotherScheme: the journaled signing keys name
// their scheme, and a broker configured with a different one refuses them
// instead of signing with keys it cannot use.
func TestRecoveryRefusesKeysOfAnotherScheme(t *testing.T) {
	f := persistedFixture(t, nil)
	_ = f.broker.Close()
	cfg := f.brokerCfg
	cfg.Scheme = sig.ECDSA{}
	_, err := RecoverBroker(cfg)
	if err == nil || !strings.Contains(err.Error(), "replaying meta record") || !strings.Contains(err.Error(), `for scheme "null"`) {
		t.Fatalf("recovery under another scheme: err = %v, want a meta-table scheme mismatch", err)
	}
}

// TestWALBatchRoundTripByteStable covers the journal's own framing: a
// mutation batch decodes to the same mutations and re-encodes to the same
// bytes.
func TestWALBatchRoundTripByteStable(t *testing.T) {
	muts := []wal.Mutation{
		wal.Set("coin", []byte("coin-key"), []byte("coin-value")),
		wal.Set("meta", []byte("keys"), bytes.Repeat([]byte{0xab}, 64)),
		wal.Delete("held", []byte("relinquished")),
		wal.Set("sub", []byte{0x00, 0xff}, nil),
	}
	first := wal.EncodeBatch(muts)
	decoded, err := wal.DecodeBatch(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second := wal.EncodeBatch(decoded)
	if !bytes.Equal(first, second) {
		t.Errorf("batch encode→decode→encode not byte-identical: %d vs %d bytes", len(first), len(second))
	}
	if len(decoded) != len(muts) {
		t.Fatalf("decoded %d mutations, want %d", len(decoded), len(muts))
	}
	for i, m := range decoded {
		if m.Table != muts[i].Table || !bytes.Equal(m.Key, muts[i].Key) || m.Op != muts[i].Op {
			t.Errorf("mutation %d mangled: %+v vs %+v", i, m, muts[i])
		}
	}
}
