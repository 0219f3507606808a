package core

import (
	"errors"
	"sync"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/dht"
	"whopay/internal/obs"
	"whopay/internal/sig"
)

var registerOnce sync.Once

// realSchemes are the schemes the real-crypto suites run under: the one
// production ships (sig.Default) and the paper's DSA stand-in.
var realSchemes = []sig.Scheme{sig.Default(), sig.ECDSA{}}

// eachRealScheme runs body as one subtest per real scheme.
func eachRealScheme(t *testing.T, body func(t *testing.T, scheme sig.Scheme)) {
	for _, scheme := range realSchemes {
		t.Run(scheme.Name(), func(t *testing.T) { body(t, scheme) })
	}
}

// tcpWorld is the production stack on real sockets: a broker and, with
// detection, a DHT ring on the framed binary wire, plus an in-process judge
// and the shared identity directory. Every listener binds an ephemeral
// loopback port.
type tcpWorld struct {
	t        *testing.T
	opts     tcpWorldOpts
	network  *tcpbus.Network
	scheme   sig.Scheme
	dir      *Directory
	judge    *Judge
	broker   *Broker
	dhtAddrs []bus.Address
}

// tcpWorldOpts tweak newTCPWorld.
type tcpWorldOpts struct {
	reg       *obs.Registry // shared by transport, broker and peers (nil: off)
	brokerRec sig.Recorder  // attributes the broker's crypto (nil: none)
	detection bool          // a 3-node DHT ring; peers publish bindings
}

func newTCPWorld(t *testing.T, scheme sig.Scheme, opts tcpWorldOpts) *tcpWorld {
	t.Helper()
	registerOnce.Do(RegisterWireTypes)
	w := &tcpWorld{
		t:       t,
		opts:    opts,
		network: tcpbus.New(tcpbus.WithObs(opts.reg)),
		scheme:  scheme,
		dir:     NewDirectory(),
	}
	var err error
	if w.judge, err = NewJudge(scheme); err != nil {
		t.Fatal(err)
	}
	var cluster *dht.Cluster
	if opts.detection {
		cluster, err = dht.NewClusterWithConfig(dht.ClusterConfig{
			Network:  w.network,
			Scheme:   scheme,
			Nodes:    3,
			Replicas: 2,
			AddrFor:  func(int) bus.Address { return "127.0.0.1:0" },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		w.dhtAddrs = cluster.Addrs()
	}
	w.broker, err = NewBroker(BrokerConfig{
		Network:   w.network,
		Addr:      "127.0.0.1:0",
		Scheme:    scheme,
		Recorder:  opts.brokerRec,
		Directory: w.dir,
		GroupPub:  w.judge.GroupPublicKey(),
		DHTNodes:  w.dhtAddrs,
		Obs:       opts.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.broker.Close() })
	if cluster != nil {
		cluster.Trust(w.broker.PublicKey())
	}
	return w
}

// peer enrolls a peer whose crypto is attributed to rec (may be nil).
func (w *tcpWorld) peer(id string, rec sig.Recorder) *Peer {
	w.t.Helper()
	p, err := NewPeer(PeerConfig{
		ID:              id,
		Network:         w.network,
		Addr:            "127.0.0.1:0",
		Scheme:          w.scheme,
		Recorder:        rec,
		Directory:       w.dir,
		BrokerAddr:      brokerBoundAddr(w.broker),
		BrokerPub:       w.broker.PublicKey(),
		Judge:           w.judge,
		CredPool:        4,
		DHTNodes:        w.dhtAddrs,
		PublishBindings: w.opts.detection,
		Obs:             w.opts.reg,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { p.Close() })
	// The directory must carry the bound address, not the ":0" asked for.
	w.dir.Register(id, p.PublicKey(), p.ep.Addr())
	return p
}

// TestLifecycleOverTCP runs the purchase → issue → transfer → deposit flow
// over real TCP sockets on the framed binary wire under each real scheme —
// the full production stack, no in-memory shortcuts.
func TestLifecycleOverTCP(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		w := newTCPWorld(t, scheme, tcpWorldOpts{})
		u, v, x := w.peer("u", nil), w.peer("v", nil), w.peer("w", nil)

		id, err := u.Purchase(3, false)
		if err != nil {
			t.Fatalf("Purchase over TCP: %v", err)
		}
		if err := u.IssueTo(v.ep.Addr(), id); err != nil {
			t.Fatalf("IssueTo over TCP: %v", err)
		}
		if err := v.TransferTo(x.ep.Addr(), id); err != nil {
			t.Fatalf("TransferTo over TCP: %v", err)
		}
		if err := x.Deposit(id, "w-payout"); err != nil {
			t.Fatalf("Deposit over TCP: %v", err)
		}
		if w.broker.Balance("w-payout") != 3 {
			t.Fatalf("balance = %d", w.broker.Balance("w-payout"))
		}
	})
}

// brokerBoundAddr exposes the broker's actually-bound endpoint address.
func brokerBoundAddr(b *Broker) bus.Address { return b.ep.Addr() }

// TestCoinBusySurvivesTCPHop proves the sentinel-code plumbing end to end:
// a busy rejection raised by an owner is still matchable with errors.Is
// after crossing a real TCP hop, where only the wire code — not the
// in-process error chain — can travel. Retry layers above the bus depend on
// exactly this to tell "try again shortly" from "give up".
func TestCoinBusySurvivesTCPHop(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		w := newTCPWorld(t, scheme, tcpWorldOpts{})
		owner := w.peer("tcp-busy-owner", nil)
		holder := w.peer("tcp-busy-holder", nil)

		id, err := owner.Purchase(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.IssueTo(holder.ep.Addr(), id); err != nil {
			t.Fatal(err)
		}

		// Pin the coin's service lock so the owner deterministically
		// answers busy, as it would mid-way through servicing a concurrent
		// transfer.
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

		// Busy commits nothing: the same renewal succeeds once the lock
		// frees.
		if _, err := holder.Renew(id); err != nil {
			t.Fatalf("retry after busy over TCP: %v", err)
		}
	})
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
