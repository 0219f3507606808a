package core

import (
	"errors"
	"strings"
	"testing"

	"whopay/internal/sig"
)

// TestRevokedCredentialRejectedByBroker runs the full revocation pipeline
// under each real scheme (the Null fixtures bypass the verification cache,
// so this test is what proves cache and CRL compose): a peer transacts
// normally, the judge revokes it, the broker is fed the revoked serials,
// and the peer's outstanding credentials stop working for every
// broker-serviced operation — even though its earlier signatures were
// verified (and memoized) before the revocation. Under Ed25519 the cache
// holds no decoded key to drop, so the CRL and the memo's generation bump
// carry the revocation alone.
func TestRevokedCredentialRejectedByBroker(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		f := newFixture(t, fixtureOpts{scheme: scheme})
		u := f.addPeer("u", nil)
		v := f.addPeer("v", nil)

		// Warm path: v deposits a coin successfully, exercising its credentials
		// and the broker's verification cache.
		id, err := u.Purchase(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.IssueTo(v.Addr(), id); err != nil {
			t.Fatal(err)
		}
		if err := v.Deposit(id, "v"); err != nil {
			t.Fatal(err)
		}

		// The judge revokes v; the broker learns the verdict.
		serials, pubs := f.judge.Revoke("v")
		if len(serials) == 0 {
			t.Fatal("Revoke returned no serials")
		}
		f.broker.RevokeCredentials(serials, pubs)

		// v still holds a coin-shaped wallet and unspent credentials, but the
		// broker now refuses them.
		id2, err := u.Purchase(3, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.IssueTo(v.Addr(), id2); err != nil {
			t.Fatal(err)
		}
		err = v.Deposit(id2, "v")
		if err == nil {
			t.Fatal("revoked peer deposited a coin")
		}
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "credential revoked") {
			t.Fatalf("deposit error = %v, want ErrBadRequest wrapping a credential revocation", err)
		}

		// Broker-serviced (downtime) transfer is refused the same way.
		w := f.addPeer("w", nil)
		err = v.TransferViaBroker(w.Addr(), id2)
		if err == nil {
			t.Fatal("revoked peer transferred via broker")
		}
		if !strings.Contains(err.Error(), "credential revoked") {
			t.Fatalf("transfer error = %v, want credential revocation", err)
		}

		// An unrevoked peer is untouched by the CRL.
		id3, err := u.Purchase(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.IssueTo(w.Addr(), id3); err != nil {
			t.Fatal(err)
		}
		if err := w.Deposit(id3, "w"); err != nil {
			t.Fatalf("unrevoked peer's deposit failed: %v", err)
		}
	})
}
