package load

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/bus/faultbus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/coin"
	"whopay/internal/core"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/federation"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// worldWorkers bounds the parallelism of actor construction and warmup
// (each actor enrolls over the bus — expensive group-signature setup).
const worldWorkers = 16

// WorldConfig sizes and wires one live load world.
type WorldConfig struct {
	// Actors is the number of peer actors (> 0).
	Actors int
	// Host is the TCP bind host (default 127.0.0.1). Ignored when
	// Network overrides the transport.
	Host string
	// Scheme defaults to sig.Default() (Ed25519), the scheme production
	// runs; ECDSA P-256 is the paper's Table 2 stand-in.
	Scheme sig.Scheme
	// CredPool is each actor's initial group-credential pool (default 8;
	// the pool auto-refills over the bus when it runs dry).
	CredPool int
	// Seed derives all load randomness (actor choice, op mix) and the
	// faultbus schedule.
	Seed int64
	// WarmCoins is how many spendable coins each actor starts with.
	WarmCoins int
	// HotCoins is the size of the shared contended-coin set (hot-coin
	// scenario; 0 disables).
	HotCoins int
	// Detection enables the DHT public binding list: owners publish,
	// holders watch, payees cross-check — and stale bindings become
	// recoverable after faults.
	Detection bool
	// DHTNodes sizes the cluster when Detection is on (default 3).
	DHTNodes int
	// DHTReplication turns on the DHT quorum/anti-entropy subsystem
	// (DESIGN.md §14) on the cluster and every client: quorum writes,
	// quorum reads with read-repair, background digest sweeps, and the
	// hot-coin lease cache. Nil keeps the legacy single-copy cluster.
	DHTReplication *replica.Config
	// DHTPersist journals every DHT node (under a temp root unless WALDir
	// is set), so node-kill events can restart nodes from their journals.
	DHTPersist bool
	// Channels is the micropay channel-pool size: the warmup opens this
	// many payer→vendor channels and the channel verbs keep the pool
	// stocked as windows exhaust and recycle (0: no channels).
	Channels int
	// Shards and Replicas, when either exceeds 1, replace the single
	// broker with a federated cluster: Shards trust-root partitions, each
	// Replicas-wide with WAL-streamed mirrors and lease failover. Actors
	// route by coin ID through the cluster and follow redirects.
	Shards   int
	Replicas int
	// LeaseTTL is the federation lease TTL — the worst-case leaderless
	// window after a crash (0: the federation default).
	LeaseTTL time.Duration
	// WALDir, when non-empty, journals the broker (the serialization hot
	// spot durability actually taxes) under this directory.
	WALDir string
	// Fsync is the journal's fsync policy.
	Fsync wal.Policy
	// Reg collects metrics from the transport, broker, and WAL (default:
	// a fresh registry).
	Reg *obs.Registry
	// Faults wraps the transport in a seeded faultbus so scenario events
	// can cut partitions and churn owners.
	Faults bool
	// CallTimeout is the per-call deadline on the TCP transport (default
	// 10s). Ignored when Network is set.
	CallTimeout time.Duration
	// Network overrides the transport (tests use the in-memory bus);
	// nil builds a real tcpbus on Host.
	Network bus.Network
}

// Actor is one lightweight peer in the load world. Its ready queue holds
// the coins this actor may spend; take/give keep coin use exclusive, so
// ordinary-mix operations never contend on a coin (contention is what the
// hot-coin set is for). A coin that saw an ambiguous transport failure is
// parked — never returned to the queue — because retrying it toward a
// different payee could sign a second binding and frame an honest owner;
// the post-run drain redeems parked coins from ground truth instead.
type Actor struct {
	Idx  int
	Peer *core.Peer

	mu      sync.Mutex
	ready   []coin.ID
	offline bool
}

// takeCoin pops a spendable coin, or reports none.
func (a *Actor) takeCoin() (coin.ID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.ready) == 0 {
		return "", false
	}
	id := a.ready[len(a.ready)-1]
	a.ready = a.ready[:len(a.ready)-1]
	return id, true
}

// giveCoin returns (or delivers) a spendable coin.
func (a *Actor) giveCoin(id coin.ID) {
	a.mu.Lock()
	a.ready = append(a.ready, id)
	a.mu.Unlock()
}

// readyLen reports the queue depth.
func (a *Actor) readyLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ready)
}

// setOffline flips the churn flag (mass-downtime events).
func (a *Actor) setOffline(v bool) {
	a.mu.Lock()
	a.offline = v
	a.mu.Unlock()
}

// isOffline reports the churn flag.
func (a *Actor) isOffline() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.offline
}

// hotCoin is one entry of the shared contended-coin set. holder tracks who
// we believe holds it; parked entries saw an ambiguous failure and are
// left for the drain.
type hotCoin struct {
	id     coin.ID
	holder int
	parked bool
}

// World is a live WhoPay deployment sized for load: a broker (optionally
// journaling), a judge server, an optional DHT cluster, and Actors peers —
// all listening on the same transport, which is a real tcpbus unless a
// test injects the in-memory bus.
type World struct {
	cfg WorldConfig
	tcp bool

	Reg      *obs.Registry
	Net      bus.Network
	FB       *faultbus.Network // nil unless cfg.Faults
	Dir      *core.Directory
	JudgeSrv *core.JudgeServer
	Broker   *core.Broker        // nil under federation — use brokers()
	Fed      *federation.Cluster // nil unless Shards/Replicas federate
	Cluster  *dht.Cluster        // nil unless cfg.Detection
	Actors   []*Actor

	// fedWalTmp is the federation journal root when the run supplied no
	// WALDir (federated brokers always journal — the mirror IS the log).
	fedWalTmp string
	// dhtWalTmp is the DHT journal root when DHTPersist is on without a
	// WALDir.
	dhtWalTmp string

	// DHT node-kill bookkeeping: kill→restarted wall time per node kill.
	dhtKills   atomic.Int64
	dhtMu      sync.Mutex
	dhtDown    []int // node indexes currently killed, restart order
	dhtRecover []time.Duration

	// Failover bookkeeping: kill→serving-again wall time per leader kill.
	foKills   atomic.Int64
	foMu      sync.Mutex
	foRecover []time.Duration

	// minted is the value actors observed entering circulation; the gap
	// to Broker.IssuedValue() is ghost value (a purchase response lost
	// in flight). Mix coins all have value 1; channel-settlement coins
	// carry a whole window balance and are observed at settlement.
	minted atomic.Int64
	// parked counts coins pulled from circulation after ambiguous
	// failures, redeemed only by the drain.
	parked atomic.Int64
	// Double-spend-flood accounting: replays the broker rejected vs
	// accepted (accepted must stay zero).
	dsRejected atomic.Int64
	dsAccepted atomic.Int64

	hotMu sync.Mutex
	hot   []*hotCoin

	// Micropay channel pool (see channels.go): chans is the ready stack
	// verbs check channels out of (coin-style exclusivity), allChans
	// remembers every channel the run opened so the drain can close them.
	chanMu   sync.Mutex
	chans    []*loadChannel
	allChans []*loadChannel

	channelsOpened  atomic.Int64
	channelPays     atomic.Int64
	channelRecycled atomic.Int64
	channelSettles  atomic.Int64
	channelSettled  atomic.Int64 // value settled into WhoPay coins
}

// addr names an endpoint: a real bind request over TCP (ephemeral port),
// a logical name on the in-memory bus.
func (w *World) addr(name string) bus.Address {
	if w.tcp {
		return bus.Address(w.cfg.Host + ":0")
	}
	return bus.Address(name)
}

// NewWorld builds and warms a load world: every entity constructed and
// listening, every actor enrolled with WarmCoins spendable coins, the hot
// set (if any) minted and distributed. Fault injection is idle until a
// scenario event turns it on, so construction runs on a clean network.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Actors <= 0 {
		return nil, errors.New("load: world needs at least one actor")
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sig.Default()
	}
	if cfg.CredPool <= 0 {
		cfg.CredPool = 8
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	core.RegisterWireTypes()

	w := &World{cfg: cfg, Reg: cfg.Reg, tcp: cfg.Network == nil}
	base := cfg.Network
	if base == nil {
		base = tcpbus.New(
			tcpbus.WithObs(cfg.Reg),
			tcpbus.WithCallTimeout(cfg.CallTimeout),
			tcpbus.WithDialTimeout(5*time.Second),
		)
	}
	w.Net = base
	if cfg.Faults {
		w.FB = faultbus.New(base, cfg.Seed)
		w.Net = w.FB
	}
	w.Dir = core.NewDirectory()

	judge, err := core.NewJudge(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("load: judge: %w", err)
	}
	w.JudgeSrv, err = core.NewJudgeServer(w.Net, w.addr("judge"), judge, cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("load: judge server: %w", err)
	}

	// The cluster must exist before the broker (the broker's DHT client
	// needs bound addresses), and the broker's key is only trusted
	// afterwards — safe, because no binding traffic flows until ops run.
	var dhtAddrs []bus.Address
	if cfg.Detection {
		n := cfg.DHTNodes
		if n <= 0 {
			n = 3
		}
		var dhtWAL *wal.Config
		if cfg.DHTPersist {
			dhtRoot := ""
			if cfg.WALDir != "" {
				dhtRoot = filepath.Join(cfg.WALDir, "dht")
			} else {
				dhtRoot, err = os.MkdirTemp("", "whopay-load-dht-")
				if err != nil {
					return nil, fmt.Errorf("load: dht wal root: %w", err)
				}
				w.dhtWalTmp = dhtRoot
			}
			dhtWAL = &wal.Config{Dir: dhtRoot, Policy: cfg.Fsync, Obs: cfg.Reg}
		}
		w.Cluster, err = dht.NewClusterWithConfig(dht.ClusterConfig{
			Network:     w.Net,
			Scheme:      cfg.Scheme,
			Nodes:       n,
			Replicas:    2,
			AddrFor:     func(i int) bus.Address { return w.addr(fmt.Sprintf("dht:%d", i)) },
			Persistence: dhtWAL,
			Obs:         cfg.Reg,
			Replication: cfg.DHTReplication,
		})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("load: dht cluster: %w", err)
		}
		dhtAddrs = w.Cluster.Addrs()
	}

	if cfg.Shards > 1 || cfg.Replicas > 1 {
		// Federated trust root. Mirror replication is the log, so the
		// cluster always journals: under WALDir when the run persists,
		// under a temp root otherwise.
		federation.RegisterWireTypes() // replication frames cross the real wire
		fedRoot := ""
		if cfg.WALDir != "" {
			fedRoot = filepath.Join(cfg.WALDir, "federation")
		} else {
			fedRoot, err = os.MkdirTemp("", "whopay-load-fed-")
			if err != nil {
				w.Close()
				return nil, fmt.Errorf("load: federation wal root: %w", err)
			}
			w.fedWalTmp = fedRoot
		}
		w.Fed, err = federation.Start(federation.Config{
			Shards:   cfg.Shards,
			Replicas: cfg.Replicas,
			Network:  w.Net,
			Broker: core.BrokerConfig{
				Scheme:         cfg.Scheme,
				Directory:      w.Dir,
				GroupPub:       judge.GroupPublicKey(),
				DHTNodes:       dhtAddrs,
				DHTReplication: cfg.DHTReplication,
			},
			Wal:      wal.Config{Dir: fedRoot, Policy: cfg.Fsync},
			LeaseTTL: cfg.LeaseTTL,
			Obs:      cfg.Reg,
			AddrFor: func(s, r int) bus.Address {
				return w.addr(fmt.Sprintf("fed-s%dr%d", s, r))
			},
		})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("load: federation: %w", err)
		}
		if w.Cluster != nil {
			for s := 0; s < w.Fed.Shards(); s++ {
				w.Cluster.Trust(w.Fed.BrokerPub(s))
			}
		}
	} else {
		var brokerWAL *wal.Config
		if cfg.WALDir != "" {
			brokerWAL = &wal.Config{
				Dir:    filepath.Join(cfg.WALDir, "broker"),
				Policy: cfg.Fsync,
				Obs:    cfg.Reg,
				Entity: "broker",
			}
		}
		w.Broker, err = core.NewBroker(core.BrokerConfig{
			Network:        w.Net,
			Addr:           w.addr("broker"),
			Scheme:         cfg.Scheme,
			Directory:      w.Dir,
			GroupPub:       judge.GroupPublicKey(),
			DHTNodes:       dhtAddrs,
			DHTReplication: cfg.DHTReplication,
			Persistence:    brokerWAL,
			Obs:            cfg.Reg,
		})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("load: broker: %w", err)
		}
		if w.Cluster != nil {
			w.Cluster.Trust(w.Broker.PublicKey())
		}
	}

	if err := w.spawnActors(dhtAddrs); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.warmup(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// spawnActors builds and enrolls every actor in parallel.
func (w *World) spawnActors(dhtAddrs []bus.Address) error {
	cfg := w.cfg
	brokerAddr, brokerPub := w.brokerIdentity()
	var router core.ShardRouter
	var retry *bus.RetryPolicy
	if w.Fed != nil {
		router = w.Fed
		// The retry budget must outlive a leaderless window: backoff sums
		// past the lease TTL, so an op issued into a failover rides
		// retries and redirects to the promoted follower.
		retry = &bus.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    300 * time.Millisecond,
			Factor:      2,
		}
	}
	w.Actors = make([]*Actor, cfg.Actors)
	return eachIndex(cfg.Actors, func(i int) error {
		id := fmt.Sprintf("actor-%04d", i)
		p, err := core.NewPeer(core.PeerConfig{
			ID:                 id,
			Network:            w.Net,
			Addr:               w.addr("peer:" + id),
			Scheme:             cfg.Scheme,
			Directory:          w.Dir,
			BrokerAddr:         brokerAddr,
			BrokerPub:          brokerPub,
			Router:             router,
			Retry:              retry,
			JudgeAddr:          w.JudgeSrv.Addr(),
			CredPool:           cfg.CredPool,
			DHTNodes:           dhtAddrs,
			DHTReplication:     cfg.DHTReplication,
			PublishBindings:    cfg.Detection,
			WatchHeldCoins:     cfg.Detection,
			CheckPublicBinding: cfg.Detection,
		})
		if err != nil {
			return fmt.Errorf("load: actor %d: %w", i, err)
		}
		w.Actors[i] = &Actor{Idx: i, Peer: p}
		return nil
	})
}

// brokerIdentity returns the fallback broker address and key actors are
// configured with: the single broker, or shard 0's founding leader under
// federation (the Router keeps both current from there).
func (w *World) brokerIdentity() (bus.Address, sig.PublicKey) {
	if w.Fed == nil {
		return w.Broker.BoundAddr(), w.Broker.PublicKey()
	}
	addr, _ := w.Fed.Leader(0)
	return addr, w.Fed.BrokerPub(0)
}

// brokers lists the live trust roots: the single broker, or every shard's
// current leader. Ledger reads (audit, balances) sum over this.
func (w *World) brokers() []*core.Broker {
	if w.Fed == nil {
		return []*core.Broker{w.Broker}
	}
	out := make([]*core.Broker, 0, w.Fed.Shards())
	for s := 0; s < w.Fed.Shards(); s++ {
		if b, _, ok := w.Fed.LeaderBroker(s); ok {
			out = append(out, b)
		}
	}
	return out
}

// brokerAddrs lists every broker endpoint: the single broker's, or all
// federation nodes' (leaders and followers — partitions cut them all).
func (w *World) brokerAddrs() []bus.Address {
	if w.Fed == nil {
		return []bus.Address{w.Broker.BoundAddr()}
	}
	var out []bus.Address
	for s := 0; s < w.Fed.Shards(); s++ {
		for r := 0; r < w.Fed.Replicas(); r++ {
			out = append(out, w.Fed.Node(s, r).Addr())
		}
	}
	return out
}

// Redirects sums the redirect hints actors' retry layers followed — the
// failover scenario's client-visible rerouting count.
func (w *World) Redirects() int64 {
	var total int64
	for _, a := range w.Actors {
		total += a.Peer.Redirects()
	}
	return total
}

// FailoverRecoveries returns each leader kill's wall-clock time from crash
// to a follower serving the shard again (lease expiry included).
func (w *World) FailoverRecoveries() []time.Duration {
	w.foMu.Lock()
	defer w.foMu.Unlock()
	return append([]time.Duration(nil), w.foRecover...)
}

// KillNextLeader is the broker-failover scenario event: crash-stop the
// next shard's leader (round-robin across kills) and record the time until
// a promoted follower serves the shard again. The lease is not released —
// the shard stays leaderless for a full TTL, exactly like a real crash.
func (w *World) KillNextLeader(_ *rand.Rand) {
	if w.Fed == nil {
		return
	}
	shard := int(w.foKills.Add(1)-1) % w.Fed.Shards()
	start := time.Now()
	if _, err := w.Fed.KillLeader(shard); err != nil {
		return
	}
	if _, err := w.Fed.WaitLeader(shard, 30*time.Second); err != nil {
		return
	}
	w.foMu.Lock()
	w.foRecover = append(w.foRecover, time.Since(start))
	w.foMu.Unlock()
}

// KillDHTNode is the dht-node-kill scenario event: crash-stop one DHT node
// (round-robin, never the last one standing) mid-storm. The node's endpoint
// unregisters, so quorum writes ride on the surviving W-of-N majority and
// client reads fall back to the remaining replicas.
func (w *World) KillDHTNode(_ *rand.Rand) {
	if w.Cluster == nil {
		return
	}
	n := len(w.Cluster.Nodes())
	w.dhtMu.Lock()
	if len(w.dhtDown) >= n-2 { // keep a read quorum alive (N=3 → at most 1 down)
		w.dhtMu.Unlock()
		return
	}
	idx := int(w.dhtKills.Add(1)-1) % n
	for contains(w.dhtDown, idx) {
		idx = (idx + 1) % n
	}
	w.dhtDown = append(w.dhtDown, idx)
	w.dhtMu.Unlock()
	_ = w.Cluster.Kill(idx)
}

// RestartDHTNode recovers the oldest killed DHT node from its journal and
// records the kill→serving-again wall time. Anti-entropy sweeps then close
// whatever the node missed while down.
func (w *World) RestartDHTNode(_ *rand.Rand) {
	if w.Cluster == nil {
		return
	}
	w.dhtMu.Lock()
	if len(w.dhtDown) == 0 {
		w.dhtMu.Unlock()
		return
	}
	idx := w.dhtDown[0]
	w.dhtDown = w.dhtDown[1:]
	w.dhtMu.Unlock()
	start := time.Now()
	if err := w.Cluster.Restart(idx); err != nil {
		return
	}
	w.dhtMu.Lock()
	w.dhtRecover = append(w.dhtRecover, time.Since(start))
	w.dhtMu.Unlock()
}

// RestartDownDHTNodes brings every still-killed DHT node back (drain phase:
// the audit needs the full replica set live for digest parity).
func (w *World) RestartDownDHTNodes() {
	for {
		w.dhtMu.Lock()
		empty := len(w.dhtDown) == 0
		w.dhtMu.Unlock()
		if empty {
			return
		}
		w.RestartDHTNode(nil)
	}
}

// DHTKillStats reports the node-kill count and per-restart recovery times.
func (w *World) DHTKillStats() (kills int64, recoveries []time.Duration) {
	w.dhtMu.Lock()
	defer w.dhtMu.Unlock()
	return w.dhtKills.Load(), append([]time.Duration(nil), w.dhtRecover...)
}

// DHTLeaseStats sums every actor's client-side lease cache counters.
func (w *World) DHTLeaseStats() (hits, misses, stale, repaired uint64) {
	for _, a := range w.Actors {
		h, m, s, r := a.Peer.DHTLeaseStats()
		hits, misses, stale, repaired = hits+h, misses+m, stale+s, repaired+r
	}
	return hits, misses, stale, repaired
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// warmup pre-funds every actor's ready queue and mints the hot set. Warm
// coins are issued to the next actor over, so the owner and the holder
// differ from the first transfer on (the remote-owner path is the normal
// one).
func (w *World) warmup() error {
	n := len(w.Actors)
	if w.cfg.WarmCoins > 0 {
		err := eachIndex(n, func(i int) error {
			owner := w.Actors[i]
			holder := w.Actors[(i+1)%n]
			for j := 0; j < w.cfg.WarmCoins; j++ {
				id, err := owner.Peer.Purchase(1, false)
				if err != nil {
					return fmt.Errorf("load: warm purchase (actor %d): %w", i, err)
				}
				w.minted.Add(1)
				if err := owner.Peer.IssueTo(holder.Peer.Addr(), id); err != nil {
					return fmt.Errorf("load: warm issue (actor %d): %w", i, err)
				}
				holder.giveCoin(id)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for k := 0; k < w.cfg.HotCoins; k++ {
		owner := w.Actors[k%n]
		holder := w.Actors[(k+1)%n]
		id, err := owner.Peer.Purchase(1, false)
		if err != nil {
			return fmt.Errorf("load: hot purchase: %w", err)
		}
		w.minted.Add(1)
		if err := owner.Peer.IssueTo(holder.Peer.Addr(), id); err != nil {
			return fmt.Errorf("load: hot issue: %w", err)
		}
		w.hot = append(w.hot, &hotCoin{id: id, holder: holder.Idx})
	}
	for k := 0; k < w.cfg.Channels; k++ {
		payer := w.Actors[k%n]
		vendor := w.Actors[(k+1)%n]
		ch, err := w.openChannelBetween(payer, vendor, core.ChannelOptions{Capacity: loadChannelCapacity})
		if err != nil {
			return fmt.Errorf("load: warm channel: %w", err)
		}
		w.giveChannel(ch)
	}
	return nil
}

// pickOnline returns a random online actor other than excl (-1: no
// exclusion), or nil when none qualifies.
func (w *World) pickOnline(rng *rand.Rand, excl int) *Actor {
	n := len(w.Actors)
	for t := 0; t < 8; t++ {
		a := w.Actors[rng.Intn(n)]
		if a.Idx != excl && !a.isOffline() {
			return a
		}
	}
	start := rng.Intn(n)
	for off := 0; off < n; off++ {
		a := w.Actors[(start+off)%n]
		if a.Idx != excl && !a.isOffline() {
			return a
		}
	}
	return nil
}

// takeReady pops a spendable coin from a random online actor (a few random
// probes, then a sweep), or reports none anywhere.
func (w *World) takeReady(rng *rand.Rand) (*Actor, coin.ID, bool) {
	n := len(w.Actors)
	for t := 0; t < 8; t++ {
		a := w.Actors[rng.Intn(n)]
		if a.isOffline() {
			continue
		}
		if id, ok := a.takeCoin(); ok {
			return a, id, true
		}
	}
	start := rng.Intn(n)
	for off := 0; off < n; off++ {
		a := w.Actors[(start+off)%n]
		if a.isOffline() {
			continue
		}
		if id, ok := a.takeCoin(); ok {
			return a, id, true
		}
	}
	return nil, "", false
}

// MintedValue reports the value actors observed entering circulation.
func (w *World) MintedValue() int64 { return w.minted.Load() }

// ParkedCoins reports how many coins ambiguous failures pulled from
// circulation before the drain.
func (w *World) ParkedCoins() int64 { return w.parked.Load() }

// DoubleSpends reports the flood accounting: broker-rejected replays and
// broker-accepted replays (the latter must be zero).
func (w *World) DoubleSpends() (rejected, accepted int64) {
	return w.dsRejected.Load(), w.dsAccepted.Load()
}

// Close tears the world down. Safe on a partially built world.
func (w *World) Close() {
	for _, a := range w.Actors {
		if a != nil {
			_ = a.Peer.Close()
		}
	}
	if w.Cluster != nil {
		w.Cluster.Close()
	}
	if w.Fed != nil {
		_ = w.Fed.Close()
	}
	if w.Broker != nil {
		_ = w.Broker.Close()
	}
	if w.JudgeSrv != nil {
		_ = w.JudgeSrv.Close()
	}
	if w.fedWalTmp != "" {
		_ = os.RemoveAll(w.fedWalTmp)
	}
	if w.dhtWalTmp != "" {
		_ = os.RemoveAll(w.dhtWalTmp)
	}
}

// eachIndex runs fn(0..n-1) across worldWorkers goroutines and returns the
// first error.
func eachIndex(n int, fn func(i int) error) error {
	workers := worldWorkers
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		failed atomic.Bool
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
