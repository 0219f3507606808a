package groupsig

import (
	"errors"
	"testing"

	"whopay/internal/sig"
)

// TestVerifyAllocs pins the allocation budget of the group-signature hot
// path: the credential message comes from a pooled buffer and the group key
// is never re-cloned, so what remains is the two-job batch (jobs + errs
// slices) and the scheme's own hashing. Measured under Null so scheme
// internals stay deterministic.
func TestVerifyAllocs(t *testing.T) {
	scheme := sig.NewNull(3)
	mgr, err := NewManager(scheme)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := mgr.Enroll("alice", 4)
	if err != nil {
		t.Fatal(err)
	}
	suite := sig.Suite{Scheme: scheme}
	groupPub := mgr.GroupPublicKey()
	msg := []byte("alloc budget message")
	gs, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := Verify(suite, groupPub, msg, gs); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Fatalf("Verify allocates %.1f times per call, budget is 5", got)
	}
}

// TestVerifierRevocationBeatsMemo: a credential that verified — and was
// memoized by the cached scheme — stops verifying the moment its serial
// lands on the CRL, because the CRL check precedes the memo and OnRevoke
// invalidates the credential key.
func TestVerifierRevocationBeatsMemo(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.Ed25519{}, sig.ECDSA{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			mgr, err := NewManager(scheme)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := mgr.Enroll("mallory", 4)
			if err != nil {
				t.Fatal(err)
			}
			suite, cache := sig.NewCachedSuite(sig.Suite{Scheme: scheme}, sig.CacheOptions{})
			v := NewVerifier(mgr.GroupPublicKey())
			v.OnRevoke = cache.InvalidateKey

			msg := []byte("spend it twice")
			gs, err := mk.Sign(suite, msg)
			if err != nil {
				t.Fatal(err)
			}
			// Verify twice so the second pass provably runs against warm memo state.
			for i := 0; i < 2; i++ {
				if err := v.Verify(suite, msg, gs); err != nil {
					t.Fatalf("pre-revocation verify %d: %v", i, err)
				}
			}
			if cache.ResultLen() == 0 {
				t.Fatal("memo did not warm up")
			}

			serials, pubs := mgr.Revoke("mallory")
			if len(serials) == 0 || len(serials) != len(pubs) {
				t.Fatalf("Revoke returned %d serials, %d pubs", len(serials), len(pubs))
			}
			v.Revoke(serials, pubs)

			err = v.Verify(suite, msg, gs)
			if !errors.Is(err, ErrCredentialRevoked) {
				t.Fatalf("post-revocation verify = %v, want ErrCredentialRevoked", err)
			}
			// The unrevoked path must still work: the package-level Verify (no CRL)
			// re-runs real crypto since the credential key was invalidated.
			if err := Verify(suite, mgr.GroupPublicKey(), msg, gs); err != nil {
				t.Fatalf("package Verify after key invalidation: %v", err)
			}
		})
	}
}
