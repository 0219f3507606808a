package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
)

// coin2Binding mirrors coin.Binding fields for hand-built test bindings.
type coin2Binding struct {
	CoinPub sig.PublicKey
	Holder  sig.PublicKey
	Seq     uint64
	Expiry  int64
}

func (b *coin2Binding) toBinding() *coin.Binding {
	return &coin.Binding{CoinPub: b.CoinPub, Holder: b.Holder, Seq: b.Seq, Expiry: b.Expiry}
}

// coinChallenge aliases coin.ChallengeMessage for test brevity.
func coinChallenge(pub sig.PublicKey, nonce []byte) []byte {
	return coin.ChallengeMessage(pub, nonce)
}

// TestFullCoinLifecycle walks a coin through the paper's Figure 1: U
// purchases, U issues to V, V transfers to W through U, W deposits at the
// broker.
func TestFullCoinLifecycle(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatalf("Purchase: %v", err)
	}
	if got := u.SelfHeldCoins(); len(got) != 1 || got[0] != id {
		t.Fatalf("SelfHeldCoins = %v", got)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatalf("IssueTo: %v", err)
	}
	if got := v.HeldCoins(); len(got) != 1 || got[0] != id {
		t.Fatalf("v.HeldCoins = %v", got)
	}
	if v.HeldValue() != 1 {
		t.Fatalf("v.HeldValue = %d", v.HeldValue())
	}
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatalf("TransferTo: %v", err)
	}
	if len(v.HeldCoins()) != 0 {
		t.Fatal("v still holds the coin after transfer")
	}
	if got := w.HeldCoins(); len(got) != 1 || got[0] != id {
		t.Fatalf("w.HeldCoins = %v", got)
	}
	if err := w.Deposit(id, "w-payout"); err != nil {
		t.Fatalf("Deposit: %v", err)
	}
	if bal := f.broker.Balance("w-payout"); bal != 1 {
		t.Fatalf("Balance = %d, want 1", bal)
	}
	if f.broker.IssuedValue() != 1 || f.broker.DepositedValue() != 1 {
		t.Fatalf("issued/deposited = %d/%d", f.broker.IssuedValue(), f.broker.DepositedValue())
	}

	// Op attribution: u serviced one issue and one transfer.
	uOps := u.Ops()
	if uOps.Get(OpPurchase) != 1 || uOps.Get(OpIssue) != 1 || uOps.Get(OpTransfer) != 1 {
		t.Fatalf("u ops = %+v", uOps)
	}
	if w.Ops().Get(OpDeposit) != 1 {
		t.Fatalf("w ops = %+v", w.Ops())
	}
	bOps := f.broker.Ops()
	if bOps.Get(OpPurchase) != 1 || bOps.Get(OpDeposit) != 1 {
		t.Fatalf("broker ops = %+v", bOps)
	}
}

// TestLifecycleWithRealCrypto runs the same flow under Ed25519 to confirm
// nothing depends on the null scheme's quirks.
func TestLifecycleWithRealCrypto(t *testing.T) {
	f := newFixture(t, fixtureOpts{scheme: sig.Ed25519{}, detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := w.Deposit(id, "w"); err != nil {
		t.Fatal(err)
	}
	if f.broker.Balance("w") != 5 {
		t.Fatalf("balance = %d", f.broker.Balance("w"))
	}
}

// TestMultiHopTransfers pushes one coin through a chain of peers — the
// transferability property.
func TestMultiHopTransfers(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	owner := f.addPeer("owner", nil)
	peers := []*Peer{f.addPeer("p1", nil), f.addPeer("p2", nil), f.addPeer("p3", nil), f.addPeer("p4", nil)}

	id, err := owner.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.IssueTo(peers[0].Addr(), id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(peers)-1; i++ {
		if err := peers[i].TransferTo(peers[i+1].Addr(), id); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	last := peers[len(peers)-1]
	if err := last.Deposit(id, "end"); err != nil {
		t.Fatal(err)
	}
	if f.broker.Balance("end") != 1 {
		t.Fatal("final deposit not credited")
	}
	if owner.Ops().Get(OpTransfer) != 3 {
		t.Fatalf("owner transfers = %d, want 3", owner.Ops().Get(OpTransfer))
	}
}

// TestRenewalViaOwner checks seq advance and fresh expiry.
func TestRenewalViaOwner(t *testing.T) {
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
	before, _ := v.HeldBinding(id)
	f.clock.Advance(48 * time.Hour)
	viaBroker, err := v.Renew(id)
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if viaBroker {
		t.Fatal("renewal went to the broker although the owner is online")
	}
	after, _ := v.HeldBinding(id)
	if after.Seq != before.Seq+1 {
		t.Fatalf("seq %d → %d, want +1", before.Seq, after.Seq)
	}
	if after.Expiry <= before.Expiry {
		t.Fatal("expiry not extended")
	}
	if u.Ops().Get(OpRenewal) != 1 {
		t.Fatalf("owner renewals = %d", u.Ops().Get(OpRenewal))
	}
}

// TestDowntimeTransferAndProactiveSync: the owner goes offline, the holder
// pays through the broker, the owner rejoins and syncs, then services the
// next hop itself.
func TestDowntimeTransferAndProactiveSync(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, syncMode: SyncProactive})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	x := f.addPeer("x", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()

	// Owner unreachable: direct transfer fails, broker path works.
	if err := v.TransferTo(w.Addr(), id); err == nil {
		t.Fatal("transfer via offline owner succeeded")
	}
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatalf("TransferViaBroker: %v", err)
	}
	wBinding, ok := w.HeldBinding(id)
	if !ok || !wBinding.ByBroker {
		t.Fatalf("w's binding = %+v, want broker-signed", wBinding)
	}
	if f.broker.Ops().Get(OpDowntimeTransfer) != 1 {
		t.Fatal("broker did not count the downtime transfer")
	}

	// Owner rejoins and proactively syncs; its local binding catches up.
	if err := u.GoOnline(); err != nil {
		t.Fatalf("GoOnline: %v", err)
	}
	ub, _ := u.OwnerBinding(id)
	if ub == nil || ub.Seq != wBinding.Seq {
		t.Fatalf("owner binding after sync = %+v, want seq %d", ub, wBinding.Seq)
	}
	if u.Ops().Get(OpSync) != 1 {
		t.Fatal("owner did not count the sync")
	}

	// The next transfer is serviced by the owner again.
	if err := w.TransferTo(x.Addr(), id); err != nil {
		t.Fatalf("post-sync transfer: %v", err)
	}
	if err := x.Deposit(id, "x"); err != nil {
		t.Fatal(err)
	}
}

// TestDowntimeRenewal renews through the broker while the owner sleeps.
func TestDowntimeRenewal(t *testing.T) {
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
	u.GoOffline()
	viaBroker, err := v.Renew(id)
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if !viaBroker {
		t.Fatal("renewal claims owner path with owner offline")
	}
	binding, _ := v.HeldBinding(id)
	if !binding.ByBroker {
		t.Fatal("downtime renewal binding not broker-signed")
	}
	if f.broker.Ops().Get(OpDowntimeRenewal) != 1 {
		t.Fatal("broker did not count the downtime renewal")
	}
	if v.Ops().Get(OpDowntimeRenewal) != 1 {
		t.Fatal("holder did not count the downtime renewal")
	}
}

// TestLazySync: the owner rejoins lazily; the first request triggers a
// public-binding check and adoption, with no broker sync.
func TestLazySync(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, syncMode: SyncLazy})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	if u.Ops().Get(OpSync) != 0 {
		t.Fatal("lazy mode performed a proactive sync")
	}
	// The owner's state is stale until the next request forces a check.
	if err := w.TransferTo(v.Addr(), id); err != nil {
		t.Fatalf("transfer after lazy rejoin: %v", err)
	}
	uOps := u.Ops()
	if uOps.Get(OpCheck) != 1 {
		t.Fatalf("checks = %d, want 1", uOps.Get(OpCheck))
	}
	if uOps.Get(OpLazySync) != 1 {
		t.Fatalf("lazy syncs = %d, want 1", uOps.Get(OpLazySync))
	}
	if uOps.Get(OpTransfer) != 1 {
		t.Fatalf("transfers = %d, want 1", uOps.Get(OpTransfer))
	}
	// Second request on the same coin: no further check.
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if u.Ops().Get(OpCheck) != 1 {
		t.Fatal("clean coin re-checked")
	}
}

// TestLazySyncWithoutDHT: the presented broker-signed binding alone lets
// the owner catch up.
func TestLazySyncWithoutDHT(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: false, syncMode: SyncLazy})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	if err := w.TransferTo(v.Addr(), id); err != nil {
		t.Fatalf("transfer with presented-binding catch-up: %v", err)
	}
	if u.Ops().Get(OpLazySync) != 1 {
		t.Fatalf("lazy syncs = %d, want 1", u.Ops().Get(OpLazySync))
	}
}

// TestAnonymousOwnerCoin exercises Section 5.2's third approach: coins
// without owner identity, reached through the indirection layer.
func TestAnonymousOwnerCoin(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, indirect: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	id, err := u.Purchase(1, true)
	if err != nil {
		t.Fatalf("anonymous Purchase: %v", err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatalf("anonymous IssueTo: %v", err)
	}
	// The coin the payee received carries no owner identity.
	vb, _ := v.HeldBinding(id)
	if vb == nil {
		t.Fatal("v has no binding")
	}
	vhc, _ := v.held.Get(id)
	heldCoin := vhc.c
	if !heldCoin.Anonymous() {
		t.Fatal("delivered coin exposes an owner")
	}
	if strings.Contains(string(heldCoin.Owner), "u") {
		t.Fatal("owner identity leaked")
	}
	// Transfer routes through the indirection layer to the hidden owner.
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatalf("anonymous TransferTo: %v", err)
	}
	if u.Ops().Get(OpTransfer) != 1 {
		t.Fatal("hidden owner did not service the transfer")
	}
	// Owner goes offline: broker path still works (the broker knows the
	// purchaser for sync purposes but the coin stays anonymous).
	u.GoOffline()
	if err := w.TransferViaBroker(v.Addr(), id); err != nil {
		t.Fatalf("anonymous downtime transfer: %v", err)
	}
	if err := v.Deposit(id, "v-payout"); err != nil {
		t.Fatal(err)
	}
}

// TestPurchaseValidation covers broker-side purchase rejections.
func TestPurchaseValidation(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	if _, err := u.Purchase(0, false); err == nil {
		t.Fatal("zero-value purchase accepted")
	}
	if _, err := u.Purchase(-3, false); err == nil {
		t.Fatal("negative-value purchase accepted")
	}
	// Frozen identity cannot buy.
	f.broker.Freeze("u")
	if _, err := u.Purchase(1, false); err == nil {
		t.Fatal("frozen identity purchased a coin")
	}
	if !f.broker.Frozen("u") {
		t.Fatal("Frozen lookup")
	}
}

// TestUnsolicitedDeliverRejected: a delivery with no matching offer fails.
func TestUnsolicitedDeliverRejected(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	// Replay the same delivery: the offer was consumed.
	vb, _ := v.HeldBinding(id)
	uoc, _ := u.owned.Get(id)
	c := uoc.c
	_, err = u.ep.Call(v.Addr(), DeliverRequest{Coin: *c, Binding: *vb})
	var remote *bus.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no matching") {
		t.Fatalf("replayed deliver = %v, want no-offer rejection", err)
	}
}

// TestOfferExpiry: stale offers are pruned.
func TestOfferExpiry(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	v := f.addPeer("v", nil)
	if _, err := v.handleOffer(OfferRequest{Value: 1}); err != nil {
		t.Fatal(err)
	}
	n := v.offers.Len()
	if n != 1 {
		t.Fatalf("offers = %d", n)
	}
	f.clock.Advance(time.Hour)
	if _, err := v.handleOffer(OfferRequest{Value: 1}); err != nil {
		t.Fatal(err)
	}
	n = v.offers.Len()
	if n != 1 {
		t.Fatalf("offers after prune = %d, want 1", n)
	}
}

// TestOfferExpires pins the offer lifetime: an offer survives exactly ten
// minutes, the first offer after that prunes it, and a delivery against it
// then fails ErrNoOffer.
func TestOfferExpires(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	v := f.addPeer("v", nil)
	offer := func() OfferResponse {
		t.Helper()
		resp, err := v.handleOffer(OfferRequest{Value: 1})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(OfferResponse)
	}
	first := offer()
	f.clock.Advance(10 * time.Minute)
	second := offer()
	if n := v.offers.Len(); n != 2 {
		t.Fatalf("offers at exactly ten minutes = %d, want 2 (none expired)", n)
	}
	f.clock.Advance(time.Second)
	offer()
	if n := v.offers.Len(); n != 2 {
		t.Fatalf("offers after ten minutes = %d, want 2 (the first pruned)", n)
	}
	_, err := v.handleDeliver(DeliverRequest{Binding: coin.Binding{Holder: first.HolderPub}})
	if !errors.Is(err, ErrNoOffer) {
		t.Fatalf("deliver against the expired offer = %v, want ErrNoOffer", err)
	}
	_, err = v.handleDeliver(DeliverRequest{Binding: coin.Binding{Holder: second.HolderPub}})
	if err == nil || errors.Is(err, ErrNoOffer) {
		t.Fatalf("deliver against the live offer = %v, want it found (and the empty coin rejected)", err)
	}
}

// TestNewPeerNeedsEnrollment: a peer enrolls through Judge or JudgeAddr;
// with neither, NewPeer refuses to build it.
func TestNewPeerNeedsEnrollment(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	cfg := f.peerConfig("loner", nil)
	cfg.Judge = nil
	p, err := NewPeer(cfg)
	if err == nil {
		p.Close()
		t.Fatal("NewPeer with neither Judge nor JudgeAddr succeeded")
	}
}

// TestDeliverToOfflinePayeeFailsCleanly: the holder keeps its coin when the
// payee disappears between offer and delivery.
func TestDeliverToOfflinePayeeFailsCleanly(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	before, _ := v.HeldBinding(id)

	// Cut w off after it answers the offer but before delivery: wrap by
	// replacing w's availability mid-protocol is racy; instead point the
	// transfer at an address that answers offers but rejects delivery.
	rejector, err := f.net.Listen("rejector", func(from bus.Address, msg any) (any, error) {
		switch msg.(type) {
		case OfferRequest:
			return w.handleOffer(msg.(OfferRequest))
		default:
			return nil, errors.New("payee gone")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rejector.Close()

	if err := v.TransferTo("rejector", id); err == nil {
		t.Fatal("transfer to vanishing payee succeeded")
	}
	after, _ := v.HeldBinding(id)
	if after.Seq != before.Seq {
		t.Fatalf("holder binding moved %d → %d on failed delivery", before.Seq, after.Seq)
	}
	// The coin is still spendable.
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatalf("retry to a live payee: %v", err)
	}

	// An issue whose payee answers the offer and then rejects delivery
	// returns the payee's rejection, leaves the coin self-held, and a
	// second issue to a live payee goes through.
	noOffer, err := f.net.Listen("no-offer", func(from bus.Address, msg any) (any, error) {
		if m, ok := msg.(OfferRequest); ok {
			return w.handleOffer(m)
		}
		return nil, ErrNoOffer
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noOffer.Close()
	id2, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo("no-offer", id2); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("issue to a rejecting payee = %v, want ErrNoOffer", err)
	}
	oc, _ := u.owned.Get(id2)
	oc.mu.Lock()
	selfHeld := oc.selfHeld
	oc.mu.Unlock()
	if !selfHeld {
		t.Fatal("coin left self-held after a rejected issue")
	}
	if err := u.IssueTo(w.Addr(), id2); err != nil {
		t.Fatalf("issue to a live payee after a rejected one: %v", err)
	}
}

// TestValueMismatchRejected: delivering a coin whose face value differs
// from the offered value is rejected by the payee.
func TestValueMismatchRejected(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	id5, err := u.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	// Open an offer for value 1, then hand-deliver the 5-valued coin
	// against it with an otherwise perfectly valid issue.
	resp, err := u.ep.Call(v.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := resp.(OfferResponse)
	oc, _ := u.owned.Get(id5)
	binding := &coin2Binding{
		CoinPub: oc.c.Pub.Clone(),
		Holder:  offer.HolderPub.Clone(),
		Seq:     1,
		Expiry:  f.clock.Now().Add(72 * time.Hour).Unix(),
	}
	bnd := binding.toBinding()
	if bnd.Sig, err = u.suite.Sign(oc.coinKeys.Private, bnd.Message()); err != nil {
		t.Fatal(err)
	}
	challengeSig, err := u.suite.Sign(u.keys.Private, coinChallenge(oc.c.Pub, offer.Nonce))
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.ep.Call(v.Addr(), DeliverRequest{Coin: *oc.c, Binding: *bnd, ChallengeSig: challengeSig, Issue: true})
	var remote *bus.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "value") {
		t.Fatalf("mismatched-value deliver = %v, want value rejection", err)
	}
}
