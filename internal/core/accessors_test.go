package core

import (
	"testing"
	"time"
)

// TestAccessors covers the small informational methods the other tests
// reach through richer paths or not at all.
func TestAccessors(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)

	if u.ID() != "u" {
		t.Fatalf("ID = %q", u.ID())
	}
	if !u.Online() {
		t.Fatal("fresh peer not online")
	}
	u.GoOffline()
	if u.Online() {
		t.Fatal("Online after GoOffline")
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	if f.dir.Len() < 2 {
		t.Fatalf("directory Len = %d", f.dir.Len())
	}

	id, err := u.Purchase(3, false)
	if err != nil {
		t.Fatal(err)
	}
	owned := u.OwnedCoins()
	if len(owned) != 1 || owned[0] != id {
		t.Fatalf("OwnedCoins = %v", owned)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	owner, ok := v.HeldCoinOwner(id)
	if !ok || owner != "u" {
		t.Fatalf("HeldCoinOwner = %q, %v", owner, ok)
	}
	expiry, ok := v.HeldBindingExpiry(id)
	if !ok || !expiry.After(f.clock.Now()) {
		t.Fatalf("HeldBindingExpiry = %v, %v", expiry, ok)
	}
	if _, ok := v.HeldCoinOwner("nope"); ok {
		t.Fatal("HeldCoinOwner found a ghost")
	}
	if _, ok := v.HeldBindingExpiry("nope"); ok {
		t.Fatal("HeldBindingExpiry found a ghost")
	}

	ops := u.Ops()
	if ops.Total() < 2 { // purchase + issue
		t.Fatalf("Total = %d", ops.Total())
	}
	sum := ops.Add(v.Ops())
	if sum.Total() < ops.Total() {
		t.Fatal("Add shrank the tally")
	}
}

// TestJudgeRevocationAndEscrow covers the judge facade.
func TestJudgeRevocationAndEscrow(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	if f.judge.IsRevoked("nobody") {
		t.Fatal("unknown identity revoked")
	}
	f.judge.Revoke("mallory")
	if !f.judge.IsRevoked("mallory") {
		t.Fatal("Revoke did not stick")
	}
	if _, err := f.judge.Enroll("mallory", 2); err == nil {
		t.Fatal("revoked identity enrolled")
	}
	shares, err := f.judge.Escrow(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 3 {
		t.Fatalf("shares = %d", len(shares))
	}
}

// TestGoOnlineWhileBrokerBusy: proactive rejoin close to the clock edge.
func TestGoOnlineProactiveIsOneSync(t *testing.T) {
	f := newFixture(t, fixtureOpts{syncMode: SyncProactive})
	u := f.addPeer("u", nil)
	for i := 0; i < 3; i++ {
		u.GoOffline()
		f.clock.Advance(time.Hour)
		if err := u.GoOnline(); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.Ops().Get(OpSync); got != 3 {
		t.Fatalf("syncs = %d, want 3 (one per rejoin)", got)
	}
}

// TestVerifyHeldCoin: the on-demand audit agrees with the watch.
func TestVerifyHeldCoin(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyHeldCoin(id); err != nil {
		t.Fatalf("clean coin failed audit: %v", err)
	}
	if err := v.VerifyHeldCoin("ghost"); err == nil {
		t.Fatal("audited a ghost coin")
	}
	// The owner cheats: re-binds the coin publicly.
	accomplice, err := u.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ob, _ := u.OwnerBinding(id)
	forged, err := u.ForgeRebind(id, accomplice.Public, ob.Seq+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.PublishForgedBinding(id, forged); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyHeldCoin(id); err == nil {
		t.Fatal("audit missed the public re-binding")
	}
	// Without a DHT the audit declines to answer.
	f2 := newFixture(t, fixtureOpts{})
	p := f2.addPeer("p", nil)
	if err := p.VerifyHeldCoin("x"); err != ErrDetectionOff {
		t.Fatalf("got %v, want ErrDetectionOff", err)
	}
}
