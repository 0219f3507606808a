package sig

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"
)

// ECDSA implements Scheme over the NIST P-256 curve. It is the default
// production scheme and the modern stand-in for the DSA-1024 the paper
// measured in Table 2: the operation mix (key generation, signature
// generation, signature verification) is identical.
//
// Encodings: public keys are the 65-byte uncompressed SEC1 point
// (0x04 || X || Y); private keys are the 32-byte big-endian scalar followed
// by that public point (97 bytes), so Sign never re-derives the point with a
// base-point multiplication — a bare 32-byte scalar, as journals written
// before the point rode along hold, still decodes by deriving it; signatures
// are ASN.1 DER as produced by crypto/ecdsa.
type ECDSA struct{}

var (
	_ Scheme     = ECDSA{}
	_ KeyDecoder = ECDSA{}
)

const (
	ecdsaPrivLen = 32
	ecdsaPubLen  = 65
)

// Name implements Scheme.
func (ECDSA) Name() string { return "ecdsa-p256" }

// GenerateKey implements Scheme.
func (ECDSA) GenerateKey() (KeyPair, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("sig: ecdsa keygen: %w", err)
	}
	pub := encodeECDSAPub(&key.PublicKey)
	priv := make([]byte, ecdsaPrivLen, ecdsaPrivLen+ecdsaPubLen)
	key.D.FillBytes(priv)
	return KeyPair{Public: pub, Private: append(priv, pub...)}, nil
}

// Sign implements Scheme.
func (ECDSA) Sign(priv PrivateKey, msg []byte) ([]byte, error) {
	key, err := decodeECDSAPriv(priv)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(msg)
	sigBytes, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sig: ecdsa sign: %w", err)
	}
	return sigBytes, nil
}

// Verify implements Scheme.
func (ECDSA) Verify(pub PublicKey, msg []byte, sigBytes []byte) error {
	key, err := decodeECDSAPub(pub)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(key, digest[:], sigBytes) {
		return ErrBadSignature
	}
	return nil
}

// DecodePublic implements KeyDecoder: it performs the SEC1 parse and
// on-curve check once so a cache can amortize them across verifies. The
// returned *ecdsa.PublicKey is read-only after construction and safe to
// share between goroutines.
func (ECDSA) DecodePublic(pub PublicKey) (any, error) {
	return decodeECDSAPub(pub)
}

// VerifyDecoded implements KeyDecoder, checking a signature against an
// already-parsed key from DecodePublic.
func (ECDSA) VerifyDecoded(key any, msg []byte, sigBytes []byte) error {
	pk, ok := key.(*ecdsa.PublicKey)
	if !ok {
		return fmt.Errorf("%w: not a decoded P-256 key", ErrBadKey)
	}
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(pk, digest[:], sigBytes) {
		return ErrBadSignature
	}
	return nil
}

func encodeECDSAPub(key *ecdsa.PublicKey) PublicKey {
	out := make([]byte, ecdsaPubLen)
	out[0] = 4
	key.X.FillBytes(out[1:33])
	key.Y.FillBytes(out[33:65])
	return out
}

func decodeECDSAPub(pub PublicKey) (*ecdsa.PublicKey, error) {
	if len(pub) != ecdsaPubLen || pub[0] != 4 {
		return nil, fmt.Errorf("%w: want %d-byte uncompressed point", ErrBadKey, ecdsaPubLen)
	}
	x := new(big.Int).SetBytes(pub[1:33])
	y := new(big.Int).SetBytes(pub[33:65])
	curve := elliptic.P256()
	// Reject points not on the curve so Verify cannot be tricked into
	// undefined behaviour by a crafted key.
	if !curve.IsOnCurve(x, y) {
		return nil, fmt.Errorf("%w: point not on P-256", ErrBadKey)
	}
	return &ecdsa.PublicKey{Curve: curve, X: x, Y: y}, nil
}

func decodeECDSAPriv(priv PrivateKey) (*ecdsa.PrivateKey, error) {
	if len(priv) != ecdsaPrivLen && len(priv) != ecdsaPrivLen+ecdsaPubLen {
		return nil, fmt.Errorf("%w: want %d-byte scalar, alone or followed by its %d-byte point",
			ErrBadKey, ecdsaPrivLen, ecdsaPubLen)
	}
	scalar, point := priv[:ecdsaPrivLen], priv[ecdsaPrivLen:]
	curve := elliptic.P256()
	d := new(big.Int).SetBytes(scalar)
	if d.Sign() == 0 || d.Cmp(curve.Params().N) >= 0 {
		return nil, fmt.Errorf("%w: scalar out of range", ErrBadKey)
	}
	key := &ecdsa.PrivateKey{D: d}
	if len(point) == 0 {
		key.Curve = curve
		key.X, key.Y = curve.ScalarBaseMult(scalar)
		return key, nil
	}
	pub, err := decodeECDSAPub(PublicKey(point))
	if err != nil {
		return nil, err
	}
	key.PublicKey = *pub
	return key, nil
}
