package federation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"whopay/internal/bus"
	"whopay/internal/core"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// Defaults for the lease machinery. The TTL is the worst-case leader-death
// detection time, so it bounds failover latency from below; the heartbeat
// divides it so a healthy leader renews several times per TTL.
const (
	DefaultLeaseTTL   = 500 * time.Millisecond
	DefaultAddrPrefix = "fed"
)

// Config describes a federated broker cluster: Shards independent trust-root
// partitions, each replicated Replicas-wide.
type Config struct {
	// Shards and Replicas size the cluster; both default to 1.
	Shards   int
	Replicas int
	// Network carries both client traffic and the replication stream.
	Network bus.Network
	// Broker is the per-shard broker template (Scheme, Directory,
	// GroupPub, Clock, ...). Network, Addr, Persistence, Federation, and
	// Obs are overwritten per node; InitialCredit must be zero.
	Broker core.BrokerConfig
	// Wal is the durability template. Dir is the federation root — each
	// node journals under Dir/shard<i>/replica<j>.
	Wal wal.Config
	// LeaseTTL (default 500ms) is how long a dead leader keeps its lease;
	// Heartbeat (default LeaseTTL/5) is the renew/acquire cadence.
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// SettleRetry is the cross-shard settlement resend cadence (zero
	// means the core default).
	SettleRetry time.Duration
	// AddrPrefix namespaces node addresses (default "fed"): node (s,r)
	// listens on "<prefix>-s<s>r<r>".
	AddrPrefix string
	// AddrFor, when set, overrides AddrPrefix naming with an explicit
	// listen address per node — "host:0" on a TCP transport, where the
	// bound (ephemeral-port) address becomes the node's identity.
	AddrFor func(shard, replica int) bus.Address
	// Obs, when non-nil, exports federation metrics (replication lag,
	// failover count and latency, current leader) and one health check
	// per shard that fails while the shard has no live leader.
	Obs *obs.Registry
}

// leaderEntry is the cluster's routing-table row for one shard.
type leaderEntry struct {
	known   bool
	replica int
	addr    bus.Address
	pub     sig.PublicKey
}

// Cluster runs Shards×Replicas federation nodes in one process and is the
// routing authority: it implements core.ShardRouter for peers and resolves
// LeaderAddr/ShardPub for the shard brokers' settlement path.
type Cluster struct {
	cfg      Config
	arbiters []*Arbiter
	nodes    [][]*Node

	mu      sync.RWMutex
	leaders []leaderEntry
	closed  bool

	failovers []*obs.Counter
	failoverD []*obs.Histogram
}

// Start boots a cluster: every node comes up as a listening follower first,
// then replica 0 of each shard is promoted deterministically, then the lease
// loops take over.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Network == nil {
		return nil, errors.New("federation: Config.Network is required")
	}
	if cfg.Wal.Dir == "" {
		return nil, errors.New("federation: Config.Wal.Dir is required")
	}
	if cfg.Broker.InitialCredit != 0 {
		return nil, errors.New("federation: Broker.InitialCredit must be zero under federation")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 5
	}
	if cfg.AddrPrefix == "" {
		cfg.AddrPrefix = DefaultAddrPrefix
	}

	c := &Cluster{
		cfg:      cfg,
		arbiters: make([]*Arbiter, cfg.Shards),
		nodes:    make([][]*Node, cfg.Shards),
		leaders:  make([]leaderEntry, cfg.Shards),
	}
	// Leases run on wall-clock time regardless of the broker's protocol
	// clock: liveness detection is infrastructure, not protocol state.
	for s := range c.arbiters {
		c.arbiters[s] = NewArbiter(cfg.LeaseTTL, nil)
	}
	for s := 0; s < cfg.Shards; s++ {
		c.nodes[s] = make([]*Node, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			n, err := newNode(c, s, r)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.nodes[s][r] = n
		}
	}
	c.registerObs()
	// Deterministic first election: replica 0 leads each shard. Followers
	// are already listening, so the founding journal (signing keys
	// included) streams to every mirror as it is written.
	for s := 0; s < cfg.Shards; s++ {
		if err := c.nodes[s][0].tryLead(); err != nil {
			c.Close()
			return nil, err
		}
	}
	for s := range c.nodes {
		for _, n := range c.nodes[s] {
			n.looping.Store(true)
			go n.run(cfg.Heartbeat)
		}
	}
	return c, nil
}

// --- core.ShardRouter ------------------------------------------------------

// NumShards implements core.ShardRouter.
func (c *Cluster) NumShards() int { return c.cfg.Shards }

// Leader implements core.ShardRouter: the current leader's address, false
// mid-failover.
func (c *Cluster) Leader(shard int) (bus.Address, bool) {
	if shard < 0 || shard >= c.cfg.Shards {
		return "", false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.leaders[shard]
	return e.addr, e.known
}

// BrokerPub implements core.ShardRouter. A shard's signing key is journaled
// at founding and survives every failover, so once known it never changes.
func (c *Cluster) BrokerPub(shard int) sig.PublicKey {
	if shard < 0 || shard >= c.cfg.Shards {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.leaders[shard].pub
}

// --- introspection ---------------------------------------------------------

// Shards returns the shard count; Replicas the replication factor.
func (c *Cluster) Shards() int   { return c.cfg.Shards }
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// LeaderBroker returns the live broker of a shard and which replica runs it.
func (c *Cluster) LeaderBroker(shard int) (*core.Broker, int, bool) {
	c.mu.RLock()
	e := c.leaders[shard]
	c.mu.RUnlock()
	if !e.known {
		return nil, 0, false
	}
	b := c.nodes[shard][e.replica].Broker()
	if b == nil {
		return nil, 0, false
	}
	return b, e.replica, true
}

// Node returns one replica's node (tests and diagnostics).
func (c *Cluster) Node(shard, replica int) *Node { return c.nodes[shard][replica] }

// PendingSettlements sums unacknowledged cross-shard settlements across all
// live leaders — the load harness drains this to zero before auditing.
func (c *Cluster) PendingSettlements() int {
	total := 0
	for s := 0; s < c.cfg.Shards; s++ {
		if b, _, ok := c.LeaderBroker(s); ok {
			total += b.PendingSettlements()
		}
	}
	return total
}

// WaitLeader blocks until a shard has a live leader, returning its replica.
func (c *Cluster) WaitLeader(shard int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		if _, r, ok := c.LeaderBroker(shard); ok {
			return r, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("federation: shard %d has no leader after %v", shard, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- fault injection -------------------------------------------------------

// KillLeader crash-stops a shard's current leader: its endpoint vanishes but
// its lease is NOT released, so the shard stays leaderless until the TTL
// expires and a follower promotes from its mirror — the full failover path,
// timed as a real crash would be. Returns the killed replica index.
func (c *Cluster) KillLeader(shard int) (int, error) {
	c.mu.Lock()
	e := c.leaders[shard]
	if !e.known {
		c.mu.Unlock()
		return 0, fmt.Errorf("federation: shard %d has no leader to kill", shard)
	}
	c.leaders[shard].known = false
	n := c.nodes[shard][e.replica]
	c.mu.Unlock()
	// Shutdown outside the cluster lock: Close paths call back into
	// clearLeader.
	n.shutdown(false)
	return e.replica, nil
}

// Close stops every node, releasing leases (clean shutdown).
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for s := range c.nodes {
		for _, n := range c.nodes[s] {
			if n != nil {
				n.shutdown(true)
			}
		}
	}
	return nil
}

// --- leadership table ------------------------------------------------------

func (c *Cluster) arbiter(shard int) *Arbiter { return c.arbiters[shard] }

func (c *Cluster) setLeader(shard, replica int, addr bus.Address, pub sig.PublicKey) {
	c.mu.Lock()
	c.leaders[shard] = leaderEntry{known: true, replica: replica, addr: addr, pub: pub}
	c.mu.Unlock()
}

// clearLeader drops the routing entry iff addr still owns it — a deposed
// leader stepping down late must not erase its successor.
func (c *Cluster) clearLeader(shard int, addr bus.Address) {
	c.mu.Lock()
	if c.leaders[shard].known && c.leaders[shard].addr == addr {
		c.leaders[shard].known = false
	}
	c.mu.Unlock()
}

// followerAddrs lists the live replication targets of a shard's leader.
func (c *Cluster) followerAddrs(shard, selfReplica int) []bus.Address {
	out := make([]bus.Address, 0, c.cfg.Replicas-1)
	for r, n := range c.nodes[shard] {
		if r == selfReplica || n == nil || !n.alive.Load() {
			continue
		}
		out = append(out, n.addr)
	}
	return out
}

// brokerConfig builds the core.BrokerConfig a node promotes with: the
// cluster template pointed at this node's address (through nodeNet, which
// reuses the node's existing listener), journaling to this node's own dir
// with the replication hook installed, federated at this node's shard.
func (c *Cluster) brokerConfig(n *Node) core.BrokerConfig {
	cfg := c.cfg.Broker
	cfg.Network = nodeNet{n: n}
	cfg.Addr = n.addr
	// Shard brokers share one process; their label-less metrics would
	// collide in a shared registry, so broker-level obs stays off and the
	// cluster exports federation metrics itself.
	cfg.Obs = nil
	cfg.InitialCredit = 0
	wc := c.cfg.Wal
	wc.Dir = n.dir
	wc.OnAppend = n.onAppend
	wc.Obs = nil
	// A snapshot rewrites the log in place, which would tear the mirrors'
	// byte-stream contract; this budget keeps Commit from ever cutting
	// one, so a federated shard's log is never compacted.
	wc.SnapshotEvery = 1 << 62
	cfg.Persistence = &wc
	cfg.Federation = &core.FederationConfig{
		Index:  n.shard,
		Shards: c.cfg.Shards,
		LeaderAddr: func(shard int) (bus.Address, bool) {
			return c.Leader(shard)
		},
		ShardPub: func(shard int) (sig.PublicKey, bool) {
			pub := c.BrokerPub(shard)
			return pub, len(pub) > 0
		},
		SettleRetry: c.cfg.SettleRetry,
	}
	return cfg
}

// --- observability ---------------------------------------------------------

var failoverBounds = []float64{0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

func (c *Cluster) registerObs() {
	r := c.cfg.Obs
	if r == nil {
		return
	}
	r.Help("whopay_fed_repl_lag_bytes", "Largest unacknowledged replication backlog per node, in bytes.")
	r.Help("whopay_fed_failovers_total", "Leader failovers per shard (boot election excluded).")
	r.Help("whopay_fed_failover_seconds", "Promotion latency per failover: lease win to serving broker.")
	r.Help("whopay_fed_leader_replica", "Replica index currently leading each shard (-1 while leaderless).")
	c.failovers = make([]*obs.Counter, c.cfg.Shards)
	c.failoverD = make([]*obs.Histogram, c.cfg.Shards)
	for s := 0; s < c.cfg.Shards; s++ {
		shard := s
		lbl := obs.Labels{"shard": fmt.Sprintf("%d", s)}
		c.failovers[s] = r.Counter("whopay_fed_failovers_total", lbl)
		c.failoverD[s] = r.Histogram("whopay_fed_failover_seconds", lbl, failoverBounds)
		r.GaugeFunc("whopay_fed_leader_replica", lbl, func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			if !c.leaders[shard].known {
				return -1
			}
			return float64(c.leaders[shard].replica)
		})
		r.RegisterHealth(fmt.Sprintf("fed-shard%d", s), func() (string, error) {
			b, rep, ok := c.LeaderBroker(shard)
			if !ok {
				return "", fmt.Errorf("shard %d: no live leader", shard)
			}
			if err := b.PersistenceErr(); err != nil {
				return "", fmt.Errorf("shard %d: %w", shard, err)
			}
			return fmt.Sprintf("leader replica %d", rep), nil
		})
		for rep, n := range c.nodes[s] {
			node := n
			r.GaugeFunc("whopay_fed_repl_lag_bytes",
				obs.Labels{"shard": fmt.Sprintf("%d", s), "replica": fmt.Sprintf("%d", rep)},
				func() float64 { return float64(node.LagBytes()) })
		}
	}
}

// noteFailover records one completed promotion.
func (c *Cluster) noteFailover(shard int, d time.Duration) {
	if c.failovers == nil {
		return
	}
	c.failovers[shard].Inc()
	c.failoverD[shard].Observe(d)
}
