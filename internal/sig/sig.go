// Package sig provides the digital-signature substrate used throughout
// WhoPay. Ed25519 is the production scheme (Default); ECDSA P-256 is the
// paper's DSA stand-in, kept because Table 2 benchmarks DSA-1024 and the
// operation mix is the same; a deterministic null scheme serves the
// simulator, where cryptographic strength is irrelevant but operation
// *counts* matter. All three perform exactly the operations DESIGN.md §4
// counts, so switching schemes changes what each operation costs, never how
// many the protocol performs.
//
// Keys and signatures are opaque byte slices so they can be embedded in
// protocol messages, used as map keys (via string conversion), and shipped
// over any transport without scheme-specific marshaling at call sites.
package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// Common errors returned by Scheme implementations.
var (
	// ErrBadSignature is returned by Verify when the signature does not
	// validate against the message and public key.
	ErrBadSignature = errors.New("sig: invalid signature")
	// ErrBadKey is returned when a key cannot be decoded for the scheme.
	ErrBadKey = errors.New("sig: malformed key")
)

// PublicKey is an encoded public key. The encoding is scheme-specific but
// stable, so byte equality implies key equality within a scheme.
type PublicKey []byte

// PrivateKey is an encoded private key.
type PrivateKey []byte

// KeyPair bundles a public key with its private counterpart.
type KeyPair struct {
	Public  PublicKey
	Private PrivateKey
}

// Fingerprint returns the SHA-256 digest of the public key. It is the
// canonical short identifier for key-valued objects (coins are public keys,
// so coin IDs are fingerprints of coin keys).
func (pk PublicKey) Fingerprint() [32]byte {
	return sha256.Sum256(pk)
}

// String renders a short hex prefix of the fingerprint, for logs and tests.
func (pk PublicKey) String() string {
	fp := pk.Fingerprint()
	return hex.EncodeToString(fp[:6])
}

// Equal reports whether two public keys have identical encodings.
func (pk PublicKey) Equal(other PublicKey) bool {
	return bytes.Equal(pk, other)
}

// Clone returns an independent copy of the key so callers can retain it
// without aliasing a buffer they do not own.
func (pk PublicKey) Clone() PublicKey {
	if pk == nil {
		return nil
	}
	out := make(PublicKey, len(pk))
	copy(out, pk)
	return out
}

// Scheme is a digital signature scheme. Implementations must be safe for
// concurrent use.
type Scheme interface {
	// Name identifies the scheme (e.g. "ecdsa-p256").
	Name() string
	// GenerateKey creates a fresh key pair.
	GenerateKey() (KeyPair, error)
	// Sign signs msg with the private key.
	Sign(priv PrivateKey, msg []byte) ([]byte, error)
	// Verify checks sig over msg against pub. It returns nil if the
	// signature is valid and ErrBadSignature (or a decoding error)
	// otherwise.
	Verify(pub PublicKey, msg []byte, sigBytes []byte) error
}
