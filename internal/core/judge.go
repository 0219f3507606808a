package core

import (
	"fmt"

	"whopay/internal/groupsig"
	"whopay/internal/sig"
)

// Judge is the trusted fairness authority (paper Section 3.2): it enrolls
// users into the signature group and, when fraud is detected, opens group
// signatures to reveal the signers — and nothing else. Enrolling a member
// means certifying the credential public keys the member generated; the
// judge never holds a member's credential private key. The judge never
// participates in payments.
type Judge struct {
	mgr *groupsig.Manager
}

// NewJudge creates a judge managing a fresh group under scheme.
func NewJudge(scheme sig.Scheme) (*Judge, error) {
	mgr, err := groupsig.NewManager(scheme)
	if err != nil {
		return nil, fmt.Errorf("core: creating judge: %w", err)
	}
	return &Judge{mgr: mgr}, nil
}

// GroupPublicKey returns the key every entity uses to verify group
// signatures.
func (j *Judge) GroupPublicKey() sig.PublicKey { return j.mgr.GroupPublicKey() }

// Enroll registers identity and returns its group member key with a
// credential pool of the given size.
func (j *Judge) Enroll(identity string, poolSize int) (*groupsig.MemberKey, error) {
	return j.mgr.Enroll(identity, poolSize)
}

// Open reveals the identity behind a group signature over msg. This is the
// fairness operation: it exposes the one signer under investigation and no
// other transaction.
func (j *Judge) Open(msg []byte, gs groupsig.Signature) (string, error) {
	return j.mgr.Open(msg, gs)
}

// Revoke bars identity from obtaining further signing credentials. It
// returns the serials and one-time public keys of every credential already
// issued to the identity so relying parties can seed their CRLs (see
// Broker.RevokeCredentials and Peer.RevokeCredentials) — the judge itself
// keeps no connection to brokers or peers.
func (j *Judge) Revoke(identity string) (serials []uint64, pubs []sig.PublicKey) {
	return j.mgr.Revoke(identity)
}

// IsRevoked reports whether identity has been revoked.
func (j *Judge) IsRevoked(identity string) bool { return j.mgr.IsRevoked(identity) }

// Escrow splits the judge's master key across a judge panel, k of n to
// recover (paper: Shamir sharing across N judges).
func (j *Judge) Escrow(k, n int) ([]groupsig.KeyShare, error) { return j.mgr.EscrowMasterKey(k, n) }
