package core

import (
	"errors"
	"sync"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/sig"
)

var registerOnce sync.Once

// TestLifecycleOverTCP runs the purchase → issue → transfer → deposit flow
// over real TCP sockets on the framed binary wire with ECDSA signatures —
// the full production stack, no in-memory shortcuts.
func TestLifecycleOverTCP(t *testing.T) {
	registerOnce.Do(RegisterWireTypes)
	network := tcpbus.New()
	scheme := sig.ECDSA{}
	dir := NewDirectory()
	judge, err := NewJudge(scheme)
	if err != nil {
		t.Fatal(err)
	}
	broker, err := NewBroker(BrokerConfig{
		Network:   network,
		Addr:      "127.0.0.1:0",
		Scheme:    scheme,
		Directory: dir,
		GroupPub:  judge.GroupPublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	// The broker bound an ephemeral port; peers must dial the real one.
	brokerAddr := brokerBoundAddr(broker)

	newTCPPeer := func(id string) *Peer {
		p, err := NewPeer(PeerConfig{
			ID:         id,
			Network:    network,
			Addr:       "127.0.0.1:0",
			Scheme:     scheme,
			Directory:  dir,
			BrokerAddr: brokerAddr,
			BrokerPub:  broker.PublicKey(),
			Judge:      judge,
			CredPool:   4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		// Directory must carry the bound address, not the ":0" we
		// asked for.
		dir.Register(id, p.PublicKey(), p.ep.Addr())
		return p
	}
	u := newTCPPeer("u")
	v := newTCPPeer("v")
	w := newTCPPeer("w")

	id, err := u.Purchase(3, false)
	if err != nil {
		t.Fatalf("Purchase over TCP: %v", err)
	}
	if err := u.IssueTo(v.ep.Addr(), id); err != nil {
		t.Fatalf("IssueTo over TCP: %v", err)
	}
	if err := v.TransferTo(w.ep.Addr(), id); err != nil {
		t.Fatalf("TransferTo over TCP: %v", err)
	}
	if err := w.Deposit(id, "w-payout"); err != nil {
		t.Fatalf("Deposit over TCP: %v", err)
	}
	if broker.Balance("w-payout") != 3 {
		t.Fatalf("balance = %d", broker.Balance("w-payout"))
	}
}

// brokerBoundAddr exposes the broker's actually-bound endpoint address.
func brokerBoundAddr(b *Broker) bus.Address { return b.ep.Addr() }

// TestCoinBusySurvivesTCPHop proves the sentinel-code plumbing end to end:
// a busy rejection raised by an owner is still matchable with errors.Is
// after crossing a real TCP hop, where only the wire code — not the
// in-process error chain — can travel. Retry layers above the bus depend on
// exactly this to tell "try again shortly" from "give up".
func TestCoinBusySurvivesTCPHop(t *testing.T) {
	registerOnce.Do(RegisterWireTypes)
	network := tcpbus.New()
	scheme := sig.ECDSA{}
	dir := NewDirectory()
	judge, err := NewJudge(scheme)
	if err != nil {
		t.Fatal(err)
	}
	broker, err := NewBroker(BrokerConfig{
		Network:   network,
		Addr:      "127.0.0.1:0",
		Scheme:    scheme,
		Directory: dir,
		GroupPub:  judge.GroupPublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	newTCPPeer := func(id string) *Peer {
		p, err := NewPeer(PeerConfig{
			ID:         id,
			Network:    network,
			Addr:       "127.0.0.1:0",
			Scheme:     scheme,
			Directory:  dir,
			BrokerAddr: brokerBoundAddr(broker),
			BrokerPub:  broker.PublicKey(),
			Judge:      judge,
			CredPool:   4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		dir.Register(id, p.PublicKey(), p.ep.Addr())
		return p
	}
	owner := newTCPPeer("tcp-busy-owner")
	holder := newTCPPeer("tcp-busy-holder")

	id, err := owner.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.IssueTo(holder.ep.Addr(), id); err != nil {
		t.Fatal(err)
	}

	// Pin the coin's service lock so the owner deterministically answers
	// busy, as it would mid-way through servicing a concurrent transfer.
	oc, _ := owner.owned.Get(id)
	oc.svc.Lock()
	_, err = holder.Renew(id)
	oc.svc.Unlock()
	if !errors.Is(err, ErrCoinBusy) {
		t.Fatalf("renew against busy coin over TCP: got %v, want errors.Is ErrCoinBusy", err)
	}
	if code := bus.ErrorCode(err); code != "core.coin_busy" {
		t.Fatalf("wire code = %q, want core.coin_busy", code)
	}

	// Busy commits nothing: the same renewal succeeds once the lock frees.
	if _, err := holder.Renew(id); err != nil {
		t.Fatalf("retry after busy over TCP: %v", err)
	}
}

// TestCoinShop exercises the issuer-anonymity extension: customers buy
// from a shop and pay each other only with anonymous transfers; the shop
// services the transfer load of its coins.
func TestCoinShop(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	shopPeer := f.addPeer("shop", nil)
	shop := NewShop(shopPeer, 2)
	alice := f.addPeer("alice", nil)
	bob := f.addPeer("bob", nil)

	if err := shop.Stock(3, 1); err != nil {
		t.Fatal(err)
	}
	if shop.Inventory(1) != 3 {
		t.Fatalf("inventory = %d", shop.Inventory(1))
	}
	id, err := shop.Vend(alice.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if shop.Inventory(1) != 2 {
		t.Fatalf("inventory after vend = %d", shop.Inventory(1))
	}
	// Alice pays Bob by transfer — never by issue, so her identity never
	// appears in a coin.
	method, err := alice.Pay(bob.Addr(), 1, PolicyIII)
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodTransferOnline {
		t.Fatalf("method = %v, want transfer via shop", method)
	}
	if shop.Ops().Get(OpTransfer) != 1 {
		t.Fatal("shop did not service the transfer")
	}
	// Restock-on-demand path.
	for i := 0; i < 3; i++ {
		if _, err := shop.Vend(bob.Addr(), 1); err != nil {
			t.Fatal(err)
		}
	}
	_ = id
}
