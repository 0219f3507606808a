package groupsig

import (
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// Fixed-layout wire codecs (internal/wire) for the group-signature
// structures embedded in protocol messages.

// AppendWire appends the credential's wire encoding to dst.
func (c *Credential) AppendWire(dst []byte) []byte {
	dst = wire.AppendU64(dst, c.Serial)
	dst = wire.AppendBytes(dst, c.Pub)
	dst = wire.AppendBytes(dst, c.Cert)
	return dst
}

// DecodeWireCredential decodes a credential written by AppendWire.
func DecodeWireCredential(d *wire.Decoder) (Credential, error) {
	var c Credential
	var err error
	if c.Serial, err = d.U64(); err != nil {
		return c, err
	}
	var raw []byte
	if raw, err = d.Bytes(); err != nil {
		return c, err
	}
	c.Pub = sig.PublicKey(raw)
	if c.Cert, err = d.Bytes(); err != nil {
		return c, err
	}
	return c, nil
}

// AppendWire appends the group signature's wire encoding to dst.
func (s *Signature) AppendWire(dst []byte) []byte {
	dst = s.Cred.AppendWire(dst)
	dst = wire.AppendBytes(dst, s.Sig)
	return dst
}

// DecodeWireSignature decodes a group signature written by AppendWire.
func DecodeWireSignature(d *wire.Decoder) (Signature, error) {
	var s Signature
	var err error
	if s.Cred, err = DecodeWireCredential(d); err != nil {
		return s, err
	}
	if s.Sig, err = d.Bytes(); err != nil {
		return s, err
	}
	return s, nil
}

// AppendWireSignaturePtr appends an optional group signature: a presence
// byte, then the signature when present (nil round-trips to nil).
func AppendWireSignaturePtr(dst []byte, s *Signature) []byte {
	if s == nil {
		return wire.AppendBool(dst, false)
	}
	dst = wire.AppendBool(dst, true)
	return s.AppendWire(dst)
}

// DecodeWireSignaturePtr decodes an optional group signature written by
// AppendWireSignaturePtr.
func DecodeWireSignaturePtr(d *wire.Decoder) (*Signature, error) {
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	s, err := DecodeWireSignature(d)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// AppendWire appends the issued credential's wire encoding to dst. The
// private key crosses the wire in the clear; transport confidentiality
// remains the deployment's problem (see judgeserver.go).
func (ic *IssuedCredential) AppendWire(dst []byte) []byte {
	dst = ic.Cred.AppendWire(dst)
	dst = wire.AppendBytes(dst, ic.Priv)
	return dst
}

// DecodeWireIssuedCredential decodes an issued credential written by
// AppendWire.
func DecodeWireIssuedCredential(d *wire.Decoder) (IssuedCredential, error) {
	var ic IssuedCredential
	var err error
	if ic.Cred, err = DecodeWireCredential(d); err != nil {
		return ic, err
	}
	var raw []byte
	if raw, err = d.Bytes(); err != nil {
		return ic, err
	}
	ic.Priv = sig.PrivateKey(raw)
	return ic, nil
}
