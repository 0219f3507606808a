package coin

import (
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// Fixed-layout wire codecs (internal/wire) for the coin structures embedded
// in protocol messages. These are transport encodings, distinct from the
// canonical signed Message()/Marshal() forms: signatures keep verifying over
// the canonical bytes regardless of how a message traveled.

// AppendWire appends the coin's wire encoding to dst.
func (c *Coin) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, c.Owner)
	dst = wire.AppendBytes(dst, c.Handle)
	dst = wire.AppendBytes(dst, c.Pub)
	dst = wire.AppendInt(dst, c.Value)
	dst = wire.AppendBytes(dst, c.Sig)
	return dst
}

// DecodeWireCoin decodes a coin written by AppendWire.
func DecodeWireCoin(d *wire.Decoder) (Coin, error) {
	var c Coin
	var err error
	if c.Owner, err = d.String(); err != nil {
		return c, err
	}
	if c.Handle, err = d.Bytes(); err != nil {
		return c, err
	}
	var pub []byte
	if pub, err = d.Bytes(); err != nil {
		return c, err
	}
	c.Pub = sig.PublicKey(pub)
	if c.Value, err = d.Int(); err != nil {
		return c, err
	}
	if c.Sig, err = d.Bytes(); err != nil {
		return c, err
	}
	return c, nil
}

// AppendWire appends the binding's wire encoding to dst.
func (b *Binding) AppendWire(dst []byte) []byte {
	dst = wire.AppendBytes(dst, b.CoinPub)
	dst = wire.AppendBytes(dst, b.Holder)
	dst = wire.AppendU64(dst, b.Seq)
	dst = wire.AppendU64(dst, uint64(b.Expiry))
	dst = wire.AppendBool(dst, b.ByBroker)
	dst = wire.AppendBytes(dst, b.Sig)
	return dst
}

// DecodeWireBinding decodes a binding written by AppendWire.
func DecodeWireBinding(d *wire.Decoder) (Binding, error) {
	var b Binding
	var err error
	var raw []byte
	if raw, err = d.Bytes(); err != nil {
		return b, err
	}
	b.CoinPub = sig.PublicKey(raw)
	if raw, err = d.Bytes(); err != nil {
		return b, err
	}
	b.Holder = sig.PublicKey(raw)
	if b.Seq, err = d.U64(); err != nil {
		return b, err
	}
	var exp uint64
	if exp, err = d.U64(); err != nil {
		return b, err
	}
	b.Expiry = int64(exp)
	if b.ByBroker, err = d.Bool(); err != nil {
		return b, err
	}
	if b.Sig, err = d.Bytes(); err != nil {
		return b, err
	}
	return b, nil
}

// AppendWireBindingPtr appends an optional binding: one presence byte, then the
// binding when present. Nil round-trips to nil.
func AppendWireBindingPtr(dst []byte, b *Binding) []byte {
	if b == nil {
		return wire.AppendBool(dst, false)
	}
	dst = wire.AppendBool(dst, true)
	return b.AppendWire(dst)
}

// DecodeWireBindingPtr decodes an optional binding written by
// AppendWireBindingPtr.
func DecodeWireBindingPtr(d *wire.Decoder) (*Binding, error) {
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	b, err := DecodeWireBinding(d)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// AppendWire appends the transfer body's wire encoding to dst.
func (t *TransferBody) AppendWire(dst []byte) []byte {
	dst = wire.AppendBytes(dst, t.CoinPub)
	dst = wire.AppendBytes(dst, t.NewHolder)
	dst = wire.AppendU64(dst, t.PrevSeq)
	dst = wire.AppendBytes(dst, t.Nonce)
	dst = wire.AppendString(dst, t.PayeeAddr)
	return dst
}

// DecodeWireTransferBody decodes a transfer body written by AppendWire.
func DecodeWireTransferBody(d *wire.Decoder) (TransferBody, error) {
	var t TransferBody
	var err error
	var raw []byte
	if raw, err = d.Bytes(); err != nil {
		return t, err
	}
	t.CoinPub = sig.PublicKey(raw)
	if raw, err = d.Bytes(); err != nil {
		return t, err
	}
	t.NewHolder = sig.PublicKey(raw)
	if t.PrevSeq, err = d.U64(); err != nil {
		return t, err
	}
	if t.Nonce, err = d.Bytes(); err != nil {
		return t, err
	}
	if t.PayeeAddr, err = d.String(); err != nil {
		return t, err
	}
	return t, nil
}
