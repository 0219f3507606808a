package core

import (
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/indirect"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// fakeClock is a controllable Clock for protocol tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// fixtureOpts tweak the test world.
type fixtureOpts struct {
	scheme     sig.Scheme
	detection  bool // DHT + publishing + watching + payee checks
	syncMode   SyncMode
	indirect   bool
	dhtNodes   int
	retry      *bus.RetryPolicy // peers retry transient transport failures
	obs        *obs.Registry    // live observability registry (nil: disabled)
	persist    *wal.Config      // broker durability (nil: in-memory broker)
	dhtPersist *wal.Config      // DHT node durability (nil: in-memory nodes)

	// dhtReplication sets the DHT quorums, sweep, and lease TTL for the
	// cluster, the broker, and every peer (DESIGN.md §14). Nil means the
	// replica.Config defaults.
	dhtReplication *replica.Config
}

type fixture struct {
	t      testing.TB
	net    *bus.Memory
	netAny bus.Network // overrides net when the test supplies its own
	scheme sig.Scheme
	clock  *fakeClock
	judge  *Judge
	dir    *Directory
	dhtCl  *dht.Cluster
	indirA []bus.Address
	broker *Broker
	opts   fixtureOpts
	seq    int

	brokerCfg BrokerConfig // as passed to NewBroker, for restarts
}

// restartBroker kills the broker (without any shutdown grace — Close only
// releases the bus address and journal handles) and recovers a new one from
// its durable state at the same address. Live peers keep their existing
// BrokerAddr and BrokerPub: recovery restores the same signing key, so
// nothing on the peer side changes.
func (f *fixture) restartBroker() {
	f.t.Helper()
	_ = f.broker.Close()
	nb, err := RecoverBroker(f.brokerCfg)
	if err != nil {
		f.t.Fatalf("broker recovery: %v", err)
	}
	f.broker = nb
}

// network returns the bus this fixture runs on.
func (f *fixture) network() bus.Network {
	if f.netAny != nil {
		return f.netAny
	}
	return f.net
}

func newFixture(t testing.TB, opts fixtureOpts) *fixture {
	t.Helper()
	if opts.scheme == nil {
		opts.scheme = sig.NewNull(1000)
	}
	if opts.dhtNodes == 0 {
		opts.dhtNodes = 4
	}
	f := &fixture{
		t:      t,
		net:    bus.NewMemory(),
		scheme: opts.scheme,
		clock:  newFakeClock(),
		dir:    NewDirectory(),
		opts:   opts,
	}
	judge, err := NewJudge(f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	f.judge = judge

	// The cluster must trust the broker's key, and the broker's client
	// needs the node addresses: create the broker first against the
	// cluster's well-known addresses (dht:0..n-1), then the cluster.
	var dhtAddrs []bus.Address
	if opts.detection {
		for i := 0; i < opts.dhtNodes; i++ {
			dhtAddrs = append(dhtAddrs, bus.Address(fmt.Sprintf("dht:%d", i)))
		}
	}

	f.brokerCfg = BrokerConfig{
		Network:     f.net,
		Addr:        "broker",
		Scheme:      f.scheme,
		Clock:       f.clock.Now,
		Directory:   f.dir,
		GroupPub:    judge.GroupPublicKey(),
		DHTNodes:    dhtAddrs,
		Persistence: opts.persist,
		Obs:         opts.obs,

		DHTReplication: opts.dhtReplication,
	}
	broker, err := NewBroker(f.brokerCfg)
	if err != nil {
		t.Fatal(err)
	}
	f.broker = broker
	t.Cleanup(func() { f.broker.Close() })

	if opts.detection {
		cluster, err := dht.NewClusterWithConfig(dht.ClusterConfig{
			Network:     f.net,
			Scheme:      f.scheme,
			Nodes:       opts.dhtNodes,
			Trusted:     []sig.PublicKey{broker.PublicKey()},
			Persistence: opts.dhtPersist,
			Replication: opts.dhtReplication,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.dhtCl = cluster
		t.Cleanup(cluster.Close)
	}
	if opts.indirect {
		for i := 0; i < 2; i++ {
			addr := bus.Address(fmt.Sprintf("i3:%d", i))
			srv, err := indirect.NewServer(f.net, addr, f.scheme)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			f.indirA = append(f.indirA, addr)
		}
	}
	return f
}

func (f *fixture) dhtAddrs() []bus.Address {
	if f.dhtCl == nil {
		return nil
	}
	return f.dhtCl.Addrs()
}

// addPeer creates a peer wired into the fixture world.
func (f *fixture) addPeer(id string, rec sig.Recorder) *Peer {
	f.t.Helper()
	return f.addPeerWith(f.peerConfig(id, rec))
}

// addPeerWith creates a peer from an explicit config (see peerConfig).
func (f *fixture) addPeerWith(cfg PeerConfig) *Peer {
	f.t.Helper()
	p, err := NewPeer(cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { p.Close() })
	return p
}

// restartPeer kills a peer and recovers a replacement from its durable
// wallet, reusing the same config (and thus the same address and identity).
func (f *fixture) restartPeer(p *Peer, cfg PeerConfig) *Peer {
	f.t.Helper()
	_ = p.Close()
	np, err := RecoverPeer(cfg)
	if err != nil {
		f.t.Fatalf("peer recovery: %v", err)
	}
	f.t.Cleanup(func() { np.Close() })
	return np
}

// peerConfig builds the config addPeer would use, so tests that restart
// peers can hold on to it.
func (f *fixture) peerConfig(id string, rec sig.Recorder) PeerConfig {
	f.t.Helper()
	f.seq++
	network := f.network()
	prober, _ := network.(Prober)
	presence, _ := network.(Presence)
	// Addresses are identity-neutral, as real IP addresses would be: the
	// paper scopes network-level anonymity to onion routing/Tarzan and
	// the application protocol must not leak identities itself.
	return PeerConfig{
		ID:              id,
		Network:         network,
		Addr:            bus.Address(fmt.Sprintf("addr:%d", f.seq)),
		Scheme:          f.scheme,
		Recorder:        rec,
		Clock:           f.clock.Now,
		Directory:       f.dir,
		BrokerAddr:      f.broker.Addr(),
		BrokerPub:       f.broker.PublicKey(),
		Judge:           f.judge,
		DHTNodes:        f.dhtAddrs(),
		WatchHeldCoins:  f.opts.detection,
		IndirectServers: f.indirA,
		SyncMode:        f.opts.syncMode,
		Prober:          prober,
		Presence:        presence,
		Rand:            mrand.New(mrand.NewSource(int64(f.seq) * 7919)),
		Retry:           f.opts.retry,
		Obs:             f.opts.obs,
		DHTReplication:  f.opts.dhtReplication,
	}
}

// dirAddr resolves an identity's address via the directory.
func (f *fixture) dirAddr(id string) bus.Address {
	f.t.Helper()
	entry, ok := f.dir.Lookup(id)
	if !ok {
		f.t.Fatalf("identity %q not in directory", id)
	}
	return entry.Addr
}

// pay is a helper asserting a specific payment method outcome.
func (f *fixture) pay(payer *Peer, payee *Peer, policy Policy, want Method) {
	f.t.Helper()
	got, err := payer.Pay(payee.Addr(), 1, policy)
	if err != nil {
		f.t.Fatalf("Pay: %v", err)
	}
	if got != want {
		f.t.Fatalf("Pay used %v, want %v", got, want)
	}
}
