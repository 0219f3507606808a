// Package coin defines WhoPay's coin representation (paper Section 4).
//
// A coin IS a public key: the broker certifies `C = {U, pkC}skB` at
// purchase. Possession is conveyed by bindings `{pkC, pkCH, seq, exp}`:
// whoever knows the private key behind the bound holder key pkCH is the
// current holder. Bindings are signed by the coin's own key skC (only the
// owner knows it) or by the broker during owner downtime, and carry a
// strictly increasing sequence number.
//
// All signed structures use a deterministic length-prefixed binary encoding
// (never json, whose output is not canonical) so signatures verify
// bit-for-bit across transports.
package coin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"whopay/internal/sig"
)

// Errors returned by verification helpers.
var (
	// ErrBadCoin is returned when a coin's broker signature is invalid.
	ErrBadCoin = errors.New("coin: invalid broker signature on coin")
	// ErrBadBinding is returned when a binding's signature is invalid.
	ErrBadBinding = errors.New("coin: invalid binding signature")
	// ErrWrongCoin is returned when a binding references another coin.
	ErrWrongCoin = errors.New("coin: binding is for a different coin")
	// ErrExpired is returned when a binding is past its expiry.
	ErrExpired = errors.New("coin: binding expired")
)

// ID identifies a coin: the raw bytes of its public key, as a string so it
// can key maps. The paper: "coins are identified by public keys, rather
// than serial numbers".
type ID string

// Pub recovers the coin public key from an ID.
func (id ID) Pub() sig.PublicKey { return sig.PublicKey(id) }

// String renders a short fingerprint for logs.
func (id ID) String() string { return sig.PublicKey(id).String() }

// Coin is the broker-signed birth certificate of a coin.
//
// Owner is the purchasing peer's identity; it is empty for owner-anonymous
// coins (paper Section 5.2, third approach), in which case Handle carries
// the i3-style indirection handle used to reach the owner and ownership is
// proven by knowledge of the coin private key instead of the owner identity
// key.
type Coin struct {
	Owner  string
	Handle []byte
	Pub    sig.PublicKey
	Value  int64
	Sig    []byte
}

// ID returns the coin's identifier.
func (c *Coin) ID() ID { return ID(c.Pub) }

// Anonymous reports whether the coin hides its owner.
func (c *Coin) Anonymous() bool { return c.Owner == "" }

// Message returns the canonical bytes the broker signs.
func (c *Coin) Message() []byte {
	var b []byte
	b = append(b, "whopay/coin/1"...)
	b = appendBytes(b, []byte(c.Owner))
	b = appendBytes(b, c.Handle)
	b = appendBytes(b, c.Pub)
	b = binary.BigEndian.AppendUint64(b, uint64(c.Value))
	return b
}

// Verify checks the broker's signature.
func (c *Coin) Verify(suite sig.Suite, brokerPub sig.PublicKey) error {
	if len(c.Pub) == 0 {
		return fmt.Errorf("%w: empty coin key", ErrBadCoin)
	}
	if c.Value <= 0 {
		return fmt.Errorf("%w: non-positive value", ErrBadCoin)
	}
	if err := suite.Verify(brokerPub, c.Message(), c.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCoin, err)
	}
	return nil
}

// Clone returns a deep copy.
func (c *Coin) Clone() *Coin {
	out := *c
	out.Handle = append([]byte(nil), c.Handle...)
	out.Pub = c.Pub.Clone()
	out.Sig = append([]byte(nil), c.Sig...)
	return &out
}

// Binding states that coin CoinPub is currently represented by holder key
// Holder, with sequence Seq and expiry Expiry (unix seconds). ByBroker
// marks bindings signed by the broker during owner downtime; otherwise the
// binding is signed by the coin key itself.
type Binding struct {
	CoinPub  sig.PublicKey
	Holder   sig.PublicKey
	Seq      uint64
	Expiry   int64
	ByBroker bool
	Sig      []byte
}

// Message returns the canonical bytes the coin key (or broker) signs.
func (b *Binding) Message() []byte {
	var out []byte
	out = append(out, "whopay/binding/1"...)
	out = appendBytes(out, b.CoinPub)
	out = appendBytes(out, b.Holder)
	out = binary.BigEndian.AppendUint64(out, b.Seq)
	out = binary.BigEndian.AppendUint64(out, uint64(b.Expiry))
	if b.ByBroker {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// Verify checks the binding's signature: against the broker key when
// ByBroker, against the coin's own key otherwise. now bounds the expiry
// check; pass the zero time to skip it (e.g. when inspecting historical
// evidence).
func (b *Binding) Verify(suite sig.Suite, brokerPub sig.PublicKey, now time.Time) error {
	signer := sig.PublicKey(b.CoinPub)
	if b.ByBroker {
		signer = brokerPub
	}
	if err := suite.Verify(signer, b.Message(), b.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBinding, err)
	}
	if !now.IsZero() && now.Unix() > b.Expiry {
		return fmt.Errorf("%w: expired %s", ErrExpired, time.Unix(b.Expiry, 0).UTC())
	}
	return nil
}

// VerifyFor additionally pins the binding to a specific coin.
func (b *Binding) VerifyFor(suite sig.Suite, c *Coin, brokerPub sig.PublicKey, now time.Time) error {
	if !c.Pub.Equal(sig.PublicKey(b.CoinPub)) {
		return ErrWrongCoin
	}
	return b.Verify(suite, brokerPub, now)
}

// Clone returns a deep copy.
func (b *Binding) Clone() *Binding {
	out := *b
	out.CoinPub = b.CoinPub.Clone()
	out.Holder = b.Holder.Clone()
	out.Sig = append([]byte(nil), b.Sig...)
	return &out
}

// Equal reports whether two bindings are bit-identical (the broker's
// "flavor two" downtime verification is exactly this comparison).
func (b *Binding) Equal(other *Binding) bool {
	if b == nil || other == nil {
		return b == other
	}
	return bytes.Equal(b.Message(), other.Message()) && bytes.Equal(b.Sig, other.Sig)
}

// TransferBody is the inner content of a transfer (or renewal) request: the
// paper's {pkCW, CV} plus the payee's challenge nonce and address, which
// travel payee → payer → owner so the owner can deliver the new binding and
// prove ownership without an extra round trip.
type TransferBody struct {
	CoinPub   sig.PublicKey
	NewHolder sig.PublicKey
	PrevSeq   uint64
	Nonce     []byte
	PayeeAddr string
}

// Message returns the canonical bytes the relinquishing holder signs with
// the current holder key (skCV in the paper's notation).
func (t *TransferBody) Message() []byte {
	var out []byte
	out = append(out, "whopay/transfer/1"...)
	out = appendBytes(out, t.CoinPub)
	out = appendBytes(out, t.NewHolder)
	out = binary.BigEndian.AppendUint64(out, t.PrevSeq)
	out = appendBytes(out, t.Nonce)
	out = appendBytes(out, []byte(t.PayeeAddr))
	return out
}

// ChallengeMessage returns the canonical bytes an owner (or the broker)
// signs to answer a payee's ownership challenge for a coin.
func ChallengeMessage(coinPub sig.PublicKey, nonce []byte) []byte {
	var out []byte
	out = append(out, "whopay/challenge/1"...)
	out = appendBytes(out, coinPub)
	out = appendBytes(out, nonce)
	return out
}

// appendBytes appends a uvarint length prefix followed by the bytes; the
// prefix makes concatenated fields unambiguous.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
