package core

import (
	"errors"
	"strings"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
)

// oc2pub recovers the coin public key from its ID.
func oc2pub(id coin.ID) sig.PublicKey { return sig.PublicKey(id) }

// TestHolderDoubleSpendRejected: a holder that already relinquished a coin
// cannot spend it again — the owner's sequence check stops it (paper:
// "only the current holder of a coin can transfer ... the coin").
func TestHolderDoubleSpendRejected(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
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
	// v keeps a copy of its holder state, transfers to w, then replays.
	vhc, _ := v.held.Get(id)
	stale := &heldCoin{
		c:          vhc.c.Clone(),
		holderKeys: vhc.holderKeys,
		binding:    vhc.binding.Clone(),
	}
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	// Replay: craft a second transfer from the stale holder state.
	resp, err := v.ep.Call(x.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := resp.(OfferResponse)
	req, err := v.buildTransfer(stale, x.Addr(), offer)
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.callOwner(stale.c, req)
	var remote *bus.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "stale") {
		t.Fatalf("double spend = %v, want stale-binding rejection", err)
	}
	if len(x.HeldCoins()) != 0 {
		t.Fatal("double-spent coin was delivered")
	}
}

// TestOwnerDoubleIssueCaughtByPayeeCheck: a colluding owner signs a second
// binding at the same sequence for a rival payee; the rival's public
// binding list check catches the conflict before accepting (Section 5.1:
// "a peer does not accept payment until verifying that the relevant public
// binding has been properly updated").
func TestOwnerDoubleIssueCaughtByPayeeCheck(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	rival := f.addPeer("rival", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	// The owner forges a same-sequence binding to the rival and tries to
	// deliver it as a fresh issue.
	resp, err := u.ep.Call(rival.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := resp.(OfferResponse)
	forged, err := u.ForgeDoubleIssue(id, offer.HolderPub)
	if err != nil {
		t.Fatal(err)
	}
	uoc, _ := u.owned.Get(id)
	c := uoc.c
	challengeSig, err := u.suite.Sign(u.keys.Private, coinChallenge(c.Pub, offer.Nonce))
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.ep.Call(rival.Addr(), DeliverRequest{Coin: *c, Binding: *forged, ChallengeSig: challengeSig, Issue: true})
	var remote *bus.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "double spend") {
		t.Fatalf("double issue = %v, want public-binding conflict", err)
	}
	if len(rival.HeldCoins()) != 0 {
		t.Fatal("rival accepted the double-issued coin")
	}
}

// TestWatcherCatchesFraudulentRebind: the owner fraudulently re-binds a
// held coin in the public list; the holder's watch fires, the report goes
// to the broker, the dispute finds no relinquishment proof, and the owner
// is frozen. This is the full real-time detection + fairness pipeline.
func TestWatcherCatchesFraudulentRebind(t *testing.T) {
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
	// The owner signs a binding moving the coin to an accomplice key at
	// the next sequence and publishes it — as a real double spend toward
	// a second payee would.
	accomplice, err := u.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := u.owned.Get(id)
	forged, err := u.ForgeRebind(id, accomplice.Public, oc.binding.Seq+1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dht.SignRecord(u.suite, oc.coinKeys, dht.KeyFor(oc.c.Pub), forged.Seq, forged.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := u.dhtc.Put(rec); err != nil {
		t.Fatalf("fraudulent publish rejected by DHT: %v", err)
	}

	// The publish notified v synchronously; the alert and verdict are
	// already in.
	alerts := v.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].CoinID != id {
		t.Fatal("alert cites wrong coin")
	}
	if !strings.Contains(alerts[0].Verdict, "owner-fraud") {
		t.Fatalf("verdict = %q, want owner-fraud", alerts[0].Verdict)
	}
	if !f.broker.Frozen("u") {
		t.Fatal("fraudulent owner not frozen")
	}
	cases := f.broker.FraudCases()
	if len(cases) != 1 || cases[0].Kind != "owner-fraud" || cases[0].Punished != "u" {
		t.Fatalf("cases = %+v", cases)
	}
}

// TestLegitimateRebindNotPunished: a stale holder's false alarm is resolved
// by the owner's valid relinquishment chain.
func TestLegitimateRebindNotPunished(t *testing.T) {
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
	vBinding, _ := v.HeldBinding(id)
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	wBinding, _ := w.HeldBinding(id)

	// v (now stale) files a report against the legitimate re-binding.
	verdict := v.reportFraud(oc2pub(id), vBinding, wBinding)
	if !strings.Contains(verdict, "legitimate") {
		t.Fatalf("verdict = %q, want legitimate", verdict)
	}
	if f.broker.Frozen("u") {
		t.Fatal("honest owner frozen on a false alarm")
	}
}

// TestDowntimeProofKeptWhenDeliveryFails: a downtime transfer whose
// delivery reports failure keeps the holder's relinquishment proof. The
// payee here got the broker-signed binding and only the reply was lost, so
// the re-binding is real; the stale holder's alarm about it must resolve
// as legitimate, not punish the owner for a binding the broker signed.
func TestDowntimeProofKeptWhenDeliveryFails(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
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
	vBinding, _ := v.HeldBinding(id)
	u.GoOffline()

	// The payee relays to w, which accepts the coin, then loses the reply.
	var relay bus.Endpoint
	relay, err = f.net.Listen("lossy-payee", func(_ bus.Address, msg any) (any, error) {
		resp, err := relay.Call(w.Addr(), msg)
		if _, ok := msg.(DeliverRequest); ok && err == nil {
			return nil, errors.New("reply lost")
		}
		return resp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if err := v.TransferViaBroker("lossy-payee", id); err == nil {
		t.Fatal("downtime transfer reported success despite the failed delivery")
	}
	wBinding, ok := w.HeldBinding(id)
	if !ok || !wBinding.ByBroker || wBinding.Seq != vBinding.Seq+1 {
		t.Fatalf("w's binding = %+v, want the broker-signed seq %d", wBinding, vBinding.Seq+1)
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}

	verdict := v.reportFraud(oc2pub(id), vBinding, wBinding)
	if !strings.Contains(verdict, "legitimate") {
		t.Fatalf("verdict = %q, want legitimate", verdict)
	}
	if f.broker.Frozen("u") {
		t.Fatal("owner frozen for a binding the broker signed")
	}
}

// TestDoubleDepositCaught: the second deposit of a coin is rejected and the
// evidence escrowed; the judge opens the group signatures to identify both
// depositors.
func TestDoubleDepositCaught(t *testing.T) {
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
	// v keeps its holder state, deposits, then replays the deposit.
	vhc, _ := v.held.Get(id)
	stale := &heldCoin{
		c:          vhc.c.Clone(),
		holderKeys: vhc.holderKeys,
		binding:    vhc.binding.Clone(),
	}
	if err := v.Deposit(id, "first"); err != nil {
		t.Fatal(err)
	}
	// Replay: rebuild the deposit request from the stale state.
	msg := depositMessage(stale.c.Pub, "second", stale.binding.Seq)
	holderSig, err := v.suite.Sign(stale.holderKeys.Private, msg)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := v.member.Sign(v.suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.ep.Call(f.broker.Addr(), DepositRequest{
		CoinPub:          stale.c.Pub,
		PayoutRef:        "second",
		HolderSig:        holderSig,
		GroupSig:         gs,
		PresentedBinding: stale.binding,
	})
	if err == nil {
		t.Fatal("double deposit accepted")
	}
	if f.broker.Balance("second") != 0 {
		t.Fatal("double deposit credited")
	}
	cases := f.broker.FraudCases()
	if len(cases) != 1 || cases[0].Kind != "double-deposit" {
		t.Fatalf("cases = %+v", cases)
	}
	// Fairness: the judge opens the escrowed group signatures and finds
	// the depositor, learning nothing about anyone else.
	for _, pair := range cases[0].GroupSigs {
		msg := pair[0].([]byte)
		gsv := pair[1].(groupsig.Signature)
		opened, err := f.judge.Open(msg, gsv)
		if err != nil {
			t.Fatalf("judge.Open: %v", err)
		}
		if opened != "v" {
			t.Fatalf("judge opened %q, want v", opened)
		}
	}
}

// TestFraudReportValidation: garbage reports are rejected.
func TestFraudReportValidation(t *testing.T) {
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
	vb, _ := v.HeldBinding(id)

	// Identical bindings: no conflict.
	verdict := v.reportFraud(oc2pub(id), vb, vb)
	if !strings.Contains(verdict, "report failed") {
		t.Fatalf("verdict = %q, want rejection", verdict)
	}
	// Tampered observed binding: bad signature.
	bad := vb.Clone()
	bad.Seq += 5
	verdict = v.reportFraud(oc2pub(id), vb, bad)
	if !strings.Contains(verdict, "report failed") {
		t.Fatalf("verdict = %q, want rejection", verdict)
	}
	if f.broker.Frozen("u") {
		t.Fatal("owner frozen on invalid evidence")
	}
}

// TestImposterCannotDeliver: an attacker who intercepted a coin's public
// data but owns neither the coin key nor the owner identity key cannot
// satisfy the payee's ownership challenge.
func TestImposterCannotDeliver(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	mallory := f.addPeer("mallory", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	// Mallory learns the coin's public material (she held it... no — she
	// just copies what v received) and tries to "pay" someone with it.
	vhc, _ := v.held.Get(id)
	c := vhc.c.Clone()
	binding := vhc.binding.Clone()

	resp, err := mallory.ep.Call(v.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := resp.(OfferResponse)
	// She cannot produce a binding to the fresh holder key (no coin
	// key), so she replays the old binding; and signs the challenge with
	// her own identity key.
	challengeSig, err := mallory.suite.Sign(mallory.keys.Private, coinChallenge(c.Pub, offer.Nonce))
	if err != nil {
		t.Fatal(err)
	}
	_, err = mallory.ep.Call(v.Addr(), DeliverRequest{Coin: *c, Binding: *binding, ChallengeSig: challengeSig})
	if err == nil {
		t.Fatal("imposter delivery accepted")
	}
	// Even with a correctly-targeted forged binding she lacks skC: craft
	// a binding naming the fresh holder but self-signed.
	forged := binding.Clone()
	forged.Holder = offer.HolderPub
	forged.Seq++
	if forged.Sig, err = mallory.suite.Sign(mallory.keys.Private, forged.Message()); err != nil {
		t.Fatal(err)
	}
	// A fresh offer (the previous one was consumed by the failed try).
	resp, err = mallory.ep.Call(v.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer2 := resp.(OfferResponse)
	forged.Holder = offer2.HolderPub
	if forged.Sig, err = mallory.suite.Sign(mallory.keys.Private, forged.Message()); err != nil {
		t.Fatal(err)
	}
	challengeSig2, err := mallory.suite.Sign(mallory.keys.Private, coinChallenge(c.Pub, offer2.Nonce))
	if err != nil {
		t.Fatal(err)
	}
	_, err = mallory.ep.Call(v.Addr(), DeliverRequest{Coin: *c, Binding: *forged, ChallengeSig: challengeSig2})
	if err == nil {
		t.Fatal("forged-binding delivery accepted")
	}
	// v's wallet unchanged.
	if len(v.HeldCoins()) != 1 {
		t.Fatalf("v holds %d coins", len(v.HeldCoins()))
	}
}

// TestStolenTransferRequestCannotBeRedirected: a transfer request is bound
// to the payee's holder key and nonce; replaying it toward a different
// payee fails at every step.
func TestStolenTransferRequestCannotBeRedirected(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	mallory := f.addPeer("mallory2", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	// Build a legitimate transfer request toward w, then have mallory
	// replay it with HER address as payee: the owner delivers to the
	// body's PayeeAddr (inside the holder-signed body), not the sender,
	// so tampering the address breaks the signature.
	resp, err := v.ep.Call(w.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	hc, _ := v.held.Get(id)
	req, err := v.buildTransfer(hc, w.Addr(), resp.(OfferResponse))
	if err != nil {
		t.Fatal(err)
	}
	tampered := req
	tampered.Body.PayeeAddr = string(mallory.Addr())
	if _, err := mallory.ep.Call(f.dirAddr("u"), tampered); err == nil {
		t.Fatal("tampered transfer request accepted")
	}
	// The untampered replay delivers to w — mallory gains nothing and
	// the payment completes exactly as v intended.
	raw, err := mallory.ep.Call(f.dirAddr("u"), req)
	if err != nil {
		t.Fatal(err)
	}
	if tr := raw.(TransferResponse); !tr.OK {
		t.Fatalf("legit replay failed: %s", tr.Reason)
	}
	if len(w.HeldCoins()) != 1 {
		t.Fatal("w did not receive the coin")
	}
}
