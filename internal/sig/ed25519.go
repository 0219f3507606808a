package sig

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
)

// Default returns the signature scheme every production entry point runs:
// the load harness's worlds, whopayd, and whopay-bench. It is Ed25519,
// which performs exactly the protocol's operations (DESIGN.md §4) at about
// 70% of ECDSA P-256's sign and verify cost and almost no allocation.
// ECDSA stays as the paper's Table 2 stand-in.
func Default() Scheme { return Ed25519{} }

// Ed25519 implements Scheme with the stdlib Ed25519 implementation. It is
// the production scheme (see Default): about 30% cheaper than ECDSA to sign
// and to verify (key generation costs about the same), with deterministic
// signatures and no key-decode step, so sig.Cached memoizes its results but
// has no decoded key to keep.
//
// Encodings: public keys are 32 bytes, private keys the 64-byte
// seed‖public form crypto/ed25519 uses, signatures 64 bytes.
type Ed25519 struct{}

var _ Scheme = Ed25519{}

// Name implements Scheme.
func (Ed25519) Name() string { return "ed25519" }

// GenerateKey implements Scheme.
func (Ed25519) GenerateKey() (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("sig: ed25519 keygen: %w", err)
	}
	return KeyPair{Public: PublicKey(pub), Private: PrivateKey(priv)}, nil
}

// Sign implements Scheme.
func (Ed25519) Sign(priv PrivateKey, msg []byte) ([]byte, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("%w: want %d-byte ed25519 private key", ErrBadKey, ed25519.PrivateKeySize)
	}
	return ed25519.Sign(ed25519.PrivateKey(priv), msg), nil
}

// Verify implements Scheme.
func (Ed25519) Verify(pub PublicKey, msg []byte, sigBytes []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: want %d-byte ed25519 public key", ErrBadKey, ed25519.PublicKeySize)
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), msg, sigBytes) {
		return ErrBadSignature
	}
	return nil
}
