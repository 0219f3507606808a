package core

import (
	"bytes"
	"reflect"
	"testing"

	"whopay/internal/dht"
	"whopay/internal/indirect"
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// The codec-parity suite: every message that crosses the TCP wire must
// survive wire-encode → decode → re-encode byte-for-byte and decode to
// exactly the value that was sent — a field the codec drops, or a nil/empty
// disagreement, would make a handler see something other than what the
// caller built.

// wireMessages lists every protocol message.
func wireMessages() []any {
	return []any{
		PurchaseRequest{}, PurchaseResponse{},
		BatchPurchaseRequest{}, BatchPurchaseResponse{},
		EnrollRequest{}, EnrollResponse{}, RefillRequest{}, RefillResponse{},
		OfferRequest{}, OfferResponse{},
		DeliverRequest{}, DeliverResponse{},
		TransferRequest{}, TransferResponse{},
		RenewRequest{}, RenewResponse{},
		DepositRequest{}, DepositResponse{},
		BatchDepositRequest{}, BatchDepositResponse{},
		LayeredDepositRequest{},
		ChannelOpenRequest{}, ChannelOpenResponse{},
		ChannelPayRequest{}, ChannelPayResponse{},
		ChannelCloseRequest{}, ChannelCloseResponse{},
		SyncRequest{}, SyncResponse{},
		FraudReport{}, FraudResponse{},
		DisputeRequest{}, DisputeResponse{},
		RelinquishProof{},
		dht.PutMsg{},
		dht.SubMsg{}, dht.Notify{}, dht.Ack{},
		dht.QuorumPutMsg{}, dht.QuorumAck{},
		dht.DigestMsg{}, dht.DigestResp{},
		dht.SweepMsg{}, dht.SweepResp{},
		dht.SweepKeysMsg{}, dht.SweepKeysResp{},
		dht.LeaseGetMsg{}, dht.LeaseResp{},
		indirect.RegisterMsg{}, indirect.ForwardMsg{}, indirect.Ack{},
	}
}

// TestEveryWireMessageHasCodec: the binary codec registry must cover the
// complete message set — a message without a codec cannot be sent.
func TestEveryWireMessageHasCodec(t *testing.T) {
	RegisterWireTypes()
	for _, proto := range wireMessages() {
		if _, ok := wire.ByValue(proto); !ok {
			t.Errorf("%T has no registered wire codec", proto)
		}
	}
}

// TestNoPrivateKeyOnTheWire: no registered wire message may have a field
// that can hold a private key. Each prototype's type is walked through
// structs, slices, arrays, maps and pointers.
func TestNoPrivateKeyOnTheWire(t *testing.T) {
	RegisterWireTypes()
	secret := map[reflect.Type]bool{
		reflect.TypeOf(sig.PrivateKey(nil)): true,
		reflect.TypeOf(sig.KeyPair{}):       true,
	}
	for _, e := range wire.Entries() {
		seen := map[reflect.Type]bool{}
		var walk func(ty reflect.Type, path string)
		walk = func(ty reflect.Type, path string) {
			if secret[ty] {
				t.Errorf("%s has a %v at %s", e.Name, ty, path)
				return
			}
			if seen[ty] {
				return
			}
			seen[ty] = true
			switch ty.Kind() {
			case reflect.Struct:
				for i := 0; i < ty.NumField(); i++ {
					walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
				}
			case reflect.Slice, reflect.Array, reflect.Pointer:
				walk(ty.Elem(), path+"[]")
			case reflect.Map:
				walk(ty.Key(), path+"[key]")
				walk(ty.Elem(), path+"[]")
			}
		}
		walk(e.Type, e.Name)
	}
}

// TestWireCodecParity: for each wire message, both a fully populated value
// and the zero value must round-trip byte-stably through the binary codec
// and decode to exactly the original.
func TestWireCodecParity(t *testing.T) {
	RegisterWireTypes()
	for _, proto := range wireMessages() {
		c := messageCodec(proto)
		t.Run(reflect.TypeOf(proto).String(), func(t *testing.T) {
			roundTrip(t, c, filled(proto))
			roundTrip(t, c, proto)
		})
	}
}

// TestForwardMsgInnerParity pins the indirection layer's any-valued inner
// field, which fillValue leaves nil: a registered inner type must ride its
// own codec and still decode to the identical value.
func TestForwardMsgInnerParity(t *testing.T) {
	RegisterWireTypes()
	var ctr int
	var inner TransferRequest
	fillValue(reflect.ValueOf(&inner).Elem(), &ctr, 0)
	msg := indirect.ForwardMsg{Handle: []byte("h1"), Inner: inner}

	e, ok := wire.ByValue(msg)
	if !ok {
		t.Fatal("no codec for ForwardMsg")
	}
	enc, err := e.Enc(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.Decode(e.Tag, enc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(indirect.ForwardMsg)
	if !ok {
		t.Fatalf("decoded %T", decoded)
	}
	if !reflect.DeepEqual(got.Inner, inner) {
		t.Errorf("inner message mangled:\n got  %#v\n want %#v", got.Inner, inner)
	}
}

// FuzzWireDecodeRegistered drives arbitrary bytes through every registered
// codec (type confusion included: the same input hits every tag). Decoders
// must return an error or a value — never panic — and a successful decode
// must re-encode byte-identically (no two byte strings may decode to the
// same value without the canonical one winning).
func FuzzWireDecodeRegistered(f *testing.F) {
	RegisterWireTypes()
	entries := wire.Entries()
	// Seed with each type's canonical encoding of a filled value.
	var first []byte
	for _, e := range entries {
		if enc, err := e.Enc(nil, filled(reflect.Zero(e.Type).Interface())); err == nil {
			f.Add(enc)
			if first == nil {
				first = enc
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A canonical encoding cut short by one byte, and one with a stray
	// trailing byte, to reach the decoders' length and trailing-byte checks.
	f.Add(first[:len(first)-1])
	f.Add(append(append([]byte(nil), first...), 0x00))
	// The same encoding with its leading byte inverted (a corrupt length,
	// count, or flag prefix), and twice over (a payload carrying two
	// messages).
	f.Add(append([]byte{^first[0]}, first[1:]...))
	f.Add(append(append([]byte(nil), first...), first...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range entries {
			v, err := wire.Decode(e.Tag, data)
			if err != nil {
				continue
			}
			re, err := e.Enc(nil, v)
			if err != nil {
				t.Fatalf("%s: decoded value failed to re-encode: %v", e.Name, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%s: non-canonical input decoded: %d in, %d out", e.Name, len(data), len(re))
			}
		}
	})
}
