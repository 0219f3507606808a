// Package dht implements the trusted, access-controlled distributed hash
// table WhoPay's real-time double-spending detection relies on (paper
// Section 5.1).
//
// Coin bindings are published under the coin's public key: the DHT key is
// SHA-256(pkC), and a write is accepted only when it is signed by the coin
// key itself (SHA-256 of the signing key must equal the record key) or by a
// configured trusted writer (the broker, so downtime operations keep the
// public list current). Anyone can read. Nodes support a register/notify
// mechanism (in the spirit of Scribe/Bayeux): watchers subscribe to a key
// and receive a notification on every accepted write, which is how holders
// spot an unexpected re-binding of a coin they hold — a double spend — in
// real time.
//
// Node IDs are SHA-256 of their addresses on a 256-bit ring, and a key's
// replica set is its successor and the N-1 nodes after it. Routing is
// one-hop from a static membership: every client knows the ring (as in
// Dynamo-style systems — appropriate here because the paper's DHT is a
// managed, trusted infrastructure) and contacts the replica set directly.
package dht

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
)

// Errors returned by nodes and clients.
var (
	// ErrAccessDenied is returned for writes that fail the ACL.
	ErrAccessDenied = errors.New("dht: write access denied")
	// ErrStaleVersion is returned for writes not newer than the stored
	// record.
	ErrStaleVersion = errors.New("dht: stale version")
	// ErrNoNodes is returned by a client with an empty membership.
	ErrNoNodes = errors.New("dht: no nodes")
	// ErrLookupFailed is returned when no node of a key's replica chain
	// answers.
	ErrLookupFailed = errors.New("dht: lookup failed")
)

// Key is a position on the 256-bit ring.
type Key [32]byte

// KeyFor maps a public key (e.g. a coin key) to its ring position.
func KeyFor(pub sig.PublicKey) Key { return sha256.Sum256(pub) }

// keyForAddr maps a node address to its ring position.
func keyForAddr(addr bus.Address) Key { return sha256.Sum256([]byte("dht/node/" + addr)) }

// Less orders keys on the ring's underlying integer line.
func (k Key) Less(other Key) bool { return bytes.Compare(k[:], other[:]) < 0 }

// Record is a versioned, signed DHT entry. For coin bindings, Value is the
// binding's canonical message concatenated with its signature, Version is
// the binding sequence number, and AuthPub is the coin public key (or the
// broker's for downtime writes).
type Record struct {
	Key     Key
	Version uint64
	Value   []byte
	AuthPub sig.PublicKey
	Sig     []byte
	// Epoch is node-local restart metadata, stamped by the accepting node
	// (never by the writer, and not covered by Sig): the node epoch at
	// which this record was accepted. Persistent nodes use it to fence
	// stale pre-crash writes after a recovery (see persist.go).
	Epoch uint64
}

// RecordMessage is the canonical byte string signed for a record.
func RecordMessage(key Key, version uint64, value []byte) []byte {
	out := make([]byte, 0, 52+len(value))
	out = append(out, "whopay/dht/record/1"...)
	out = append(out, key[:]...)
	out = binary.BigEndian.AppendUint64(out, version)
	out = append(out, value...)
	return out
}

// SignRecord builds a signed record writing value at key with the given
// version, authenticated by kp.
func SignRecord(suite sig.Suite, kp sig.KeyPair, key Key, version uint64, value []byte) (Record, error) {
	sigBytes, err := suite.Sign(kp.Private, RecordMessage(key, version, value))
	if err != nil {
		return Record{}, fmt.Errorf("dht: signing record: %w", err)
	}
	return Record{Key: key, Version: version, Value: value, AuthPub: kp.Public.Clone(), Sig: sigBytes}, nil
}

// Wire messages, exported for their wire codecs (wire.go).
type (
	// PutMsg pushes a record to one replica: a quorum write's fan-out, a
	// read-repair back-fill, or an anti-entropy push. The receiver
	// validates and stores it; it neither fans out nor notifies.
	PutMsg struct{ Rec Record }
	// SubMsg subscribes (or unsubscribes) Watcher to writes at Key.
	// NoReplicate marks replica fan-out of a registration: watcher sets
	// are replicated across the replica set like records, so a
	// registration accepted by a fallback replica still notifies after
	// the primary recovers.
	SubMsg struct {
		Key         Key
		Watcher     bus.Address
		Unsub       bool
		NoReplicate bool
	}
	// Notify is delivered to watchers on every accepted write.
	Notify struct{ Rec Record }
	// Ack is an empty success response.
	Ack struct{}
)

type nodeRef struct {
	id   Key
	addr bus.Address
}

// dhtShards is the lock-domain count for a node's record and subscription
// stores: every coin in the system publishes here, so writes against
// different coins must not serialize on one node-wide lock.
const dhtShards = 32

// keyHash routes ring keys into store shards. Keys are SHA-256 outputs, so
// any 8 bytes are uniformly distributed.
func keyHash(k Key) uint64 { return binary.BigEndian.Uint64(k[:8]) }

// Node is one DHT server. Create nodes through Cluster. Records and
// subscriptions live in sharded stores; the version check in handlePut is
// atomic per key (under the key's shard lock).
type Node struct {
	id      Key
	addr    bus.Address
	ep      bus.Endpoint
	scheme  sig.Scheme
	trusted map[string]bool

	// started closes once the cluster has wired this node's ring (the
	// static membership its replica sets come from). The endpoint is live
	// from Listen on, and on a restart the address is already known to
	// peers and sweepers — requests arriving in the wiring window park
	// here instead of observing a half-built node.
	started chan struct{}

	store *store.Sharded[Key, Record]
	subs  *store.Sharded[Key, map[bus.Address]bool]

	// Static membership, wired by the cluster: the full sorted ring the
	// replica sets are computed from.
	ring []nodeRef

	// Durability (nil/zero for in-memory nodes): the journal, which also
	// latches its first failure, and the node epoch (immutable once
	// serving).
	walLog *wal.Log
	epoch  uint64

	// Observability (nil/zero when the cluster has no Obs registry).
	instr         *obs.Instr
	lastForceSync atomic.Int64 // unix nanos of the epoch-fence force-sync at recovery

	// Replication (DESIGN.md §14): the cluster's normalized quorums.
	rep       replica.Config
	stopSweep chan struct{}
	sweepWG   sync.WaitGroup

	// Replication counters, exported as function metrics by the cluster.
	sweepRounds   atomic.Int64
	sweepRepairs  atomic.Int64
	repairBacklog atomic.Int64
	backlogGrowth atomic.Int64
	quorumWrites  atomic.Int64
	quorumFails   atomic.Int64
}

// Addr returns the node's bus address.
func (n *Node) Addr() bus.Address { return n.addr }

// handle dispatches one DHT message once the node has started.
func (n *Node) handle(from bus.Address, msg any) (any, error) {
	<-n.started
	return n.dispatch(from, msg)
}

func (n *Node) dispatch(_ bus.Address, msg any) (any, error) {
	// Spans are opened inline per case (no closure — a wrapper func would
	// allocate even with instrumentation disabled).
	switch m := msg.(type) {
	case PutMsg:
		sp := n.instr.Begin("serve-put")
		resp, err := n.handlePut(m)
		n.instr.End(sp, err)
		return resp, err
	case QuorumPutMsg:
		sp := n.instr.Begin("serve-quorum-put")
		resp, err := n.handleQuorumPut(m)
		n.instr.End(sp, err)
		return resp, err
	case LeaseGetMsg:
		sp := n.instr.Begin("serve-lease-get")
		rec, ok := n.store.Get(m.Key)
		n.instr.End(sp, nil)
		return LeaseResp{Rec: rec, Found: ok, GrantMs: uint32(n.rep.LeaseTTL / time.Millisecond)}, nil
	case DigestMsg:
		rec, ok := n.store.Get(m.Key)
		return DigestResp{Found: ok, Version: rec.Version}, nil
	case SweepMsg:
		return n.handleSweep(m)
	case SweepKeysMsg:
		sp := n.instr.Begin("serve-sweep-keys")
		resp, err := n.handleSweepKeys(m)
		n.instr.End(sp, err)
		return resp, err
	case SubMsg:
		// The watcher set is mutated in place under the shard's write
		// lock; readers copy it under View (see handlePut).
		n.subs.Compute(m.Key, func(ws map[bus.Address]bool, exists bool) (map[bus.Address]bool, store.Op) {
			if m.Unsub {
				if !exists {
					return nil, store.OpKeep
				}
				delete(ws, m.Watcher)
				n.journalSubsLocked(m.Key, ws)
				if len(ws) == 0 {
					return nil, store.OpDelete
				}
				return ws, store.OpSet
			}
			if ws == nil {
				ws = make(map[bus.Address]bool)
			}
			ws[m.Watcher] = true
			n.journalSubsLocked(m.Key, ws)
			return ws, store.OpSet
		})
		// Replicate the registration across the replica set, best-effort,
		// so a watcher registered at a fallback replica is still notified
		// by the primary once it recovers. Anti-entropy closes the gap
		// for replicas that were down right now.
		if !m.NoReplicate {
			if others := n.otherReplicas(m.Key); len(others) > 0 {
				fwd := m
				fwd.NoReplicate = true
				n.fanOut(others, fwd)
			}
		}
		return Ack{}, nil
	default:
		return nil, fmt.Errorf("dht: unknown message %T", msg)
	}
}

// handlePut stores a replica push. Client writes arrive as QuorumPutMsg;
// the coordinator fans out and notifies, so a push does neither.
func (n *Node) handlePut(m PutMsg) (any, error) {
	if _, _, err := n.acceptRecord(m.Rec); err != nil {
		return nil, err
	}
	return Ack{}, nil
}

// acceptRecord validates and applies one record locally: ACL, signature,
// then the version check and the write as one atomic step under the key's
// shard lock, so concurrent writers cannot interleave a stale record over
// a newer one. Returns the record as stored (stamped with this node's
// epoch) when accepted.
func (n *Node) acceptRecord(rec Record) (bool, Record, error) {
	// ACL: the signing key must hash to the record key (coin-owner
	// write) or be a trusted writer (broker downtime write).
	if KeyFor(rec.AuthPub) != rec.Key && !n.trusted[string(rec.AuthPub)] {
		return false, rec, ErrAccessDenied
	}
	if err := n.scheme.Verify(rec.AuthPub, RecordMessage(rec.Key, rec.Version, rec.Value), rec.Sig); err != nil {
		return false, rec, fmt.Errorf("%w: bad record signature: %v", ErrAccessDenied, err)
	}
	var staleErr error
	accepted := false
	n.store.Compute(rec.Key, func(old Record, exists bool) (Record, store.Op) {
		if exists && rec.Version <= old.Version {
			switch {
			case rec.Version == old.Version && bytes.Equal(rec.Value, old.Value):
				return old, store.OpKeep // idempotent re-put
			case rec.Version == old.Version && old.Epoch < n.epoch && n.trusted[string(rec.AuthPub)]:
				// The stored record predates this node's latest
				// recovery: a trusted writer (the broker) may
				// refresh the authoritative binding at the same
				// version. Once refreshed it carries the current
				// epoch, closing the door on pre-crash races.
			default:
				staleErr = fmt.Errorf("%w: have v%d, got v%d", ErrStaleVersion, old.Version, rec.Version)
				return old, store.OpKeep
			}
		}
		rec.Epoch = n.epoch
		accepted = true
		n.journalRecordLocked(rec)
		return rec, store.OpSet
	})
	return accepted, rec, staleErr
}

// notifyWatchers tells every watcher of rec.Key about an accepted write,
// concurrently and best-effort — an offline watcher simply misses it.
func (n *Node) notifyWatchers(rec Record) {
	var watchers []bus.Address
	n.subs.View(rec.Key, func(ws map[bus.Address]bool, _ bool) {
		for w := range ws {
			watchers = append(watchers, w)
		}
	})
	n.fanOut(watchers, Notify{Rec: rec})
}

// fanWidth bounds concurrent downstream calls on the serve path.
const fanWidth = 8

// fanOut delivers msg to every address over at most fanWidth concurrent
// goroutines, waits for completion, and reports how many calls succeeded —
// so serve-put latency is the slowest downstream call, not the sum of all
// of them. Failures are the caller's policy: quorum writes count them,
// replica pushes and watcher notifies shrug.
func (n *Node) fanOut(addrs []bus.Address, msg any) int {
	switch len(addrs) {
	case 0:
		return 0
	case 1: // common case: no goroutine
		if _, err := n.ep.Call(addrs[0], msg); err != nil {
			return 0
		}
		return 1
	}
	var (
		ok  atomic.Int64
		wg  sync.WaitGroup
		sem = make(chan struct{}, fanWidth)
	)
	for _, a := range addrs {
		wg.Add(1)
		sem <- struct{}{}
		go func(a bus.Address) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := n.ep.Call(a, msg); err == nil {
				ok.Add(1)
			}
		}(a)
	}
	wg.Wait()
	return int(ok.Load())
}

// replicaSet returns the nodes responsible for key: its successor and the
// following N-1 nodes.
func (n *Node) replicaSet(key Key) []nodeRef {
	out := make([]nodeRef, 0, n.rep.N)
	i := sort.Search(len(n.ring), func(i int) bool { return !n.ring[i].id.Less(key) })
	for r := 0; r < n.rep.N && r < len(n.ring); r++ {
		out = append(out, n.ring[(i+r)%len(n.ring)])
	}
	return out
}

// StoreSize reports how many records this node holds (tests/metrics).
func (n *Node) StoreSize() int { return n.store.Len() }

// Cluster is a managed set of DHT nodes — the paper's "trusted DHT
// infrastructure ... provided as a service by a trusted entity".
type Cluster struct {
	cfg   ClusterConfig
	ring  []nodeRef
	nodes []*Node
	addrs []bus.Address

	// health holds each slot's live node for /healthz checks: Restart
	// swaps the pointer so the (once-registered) check always reports on
	// the replacement, never the crashed instance.
	health []atomic.Pointer[Node]
}

// ClusterConfig configures a DHT cluster.
type ClusterConfig struct {
	Network bus.Network
	Scheme  sig.Scheme
	Nodes   int
	// Trusted writers may publish under any key (the broker, so downtime
	// operations keep the public list current).
	Trusted []sig.PublicKey
	// AddrFor, when set, chooses node i's listen address — required for
	// transports whose address space the cluster cannot invent names in
	// (tcpbus wants "host:0" and assigns the real port at bind time). The
	// node's ring identity is derived from the address the endpoint
	// actually bound, so ephemeral ports work. Nil keeps the in-memory
	// default "dht:<i>".
	AddrFor func(i int) bus.Address
	// Persistence, when set, makes every node durable: node i journals
	// under Persistence.Sub("node-i"), and Restart recovers it from that
	// journal. Nil keeps nodes purely in memory.
	Persistence *wal.Config
	// Obs, when non-nil, instruments every node (DESIGN.md §11): spans and
	// latency histograms per served message, WAL metrics, and a /healthz
	// check reporting each node's journal error and epoch-fence age. Nil
	// (the default) keeps nodes byte-identical to uninstrumented ones.
	Obs *obs.Registry
	// Replication sets the quorum/anti-entropy parameters (DESIGN.md
	// §14): quorum writes commit on W of N replicas, every node runs a
	// background digest sweep against its successor neighbors, and lease
	// reads carry a grant. Nil means the replica.Config defaults (3/2/2,
	// clamped to the ring).
	Replication *replica.Config
}

// NewCluster creates n nodes on net at the default quorums with the given
// trusted writers, and wires every node's ring.
func NewCluster(net bus.Network, scheme sig.Scheme, n int, trusted ...sig.PublicKey) (*Cluster, error) {
	return NewClusterWithConfig(ClusterConfig{Network: net, Scheme: scheme, Nodes: n, Trusted: trusted})
}

// NewClusterWithConfig creates a cluster, optionally persistent.
func NewClusterWithConfig(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, errors.New("dht: need at least one node")
	}
	var rep replica.Config
	if cfg.Replication != nil {
		rep = *cfg.Replication
	}
	rep = rep.WithDefaults(cfg.Nodes)
	cfg.Replication = &rep
	c := &Cluster{cfg: cfg}
	ring := make([]nodeRef, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		node, err := c.startNode(i, "")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		ring = append(ring, nodeRef{id: node.id, addr: node.addr})
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].id.Less(ring[j].id) })
	c.ring = ring
	for _, node := range c.nodes {
		node.ring = ring
		close(node.started)
	}
	for _, node := range c.nodes {
		c.addrs = append(c.addrs, node.addr)
	}
	// Sweepers start only after every node's ring is wired: a sweep
	// computes replica sets from the ring.
	for _, node := range c.nodes {
		node.startSweeper()
	}
	return c, nil
}

// startNode creates and starts node i: open its journal (when persistent),
// replay it, listen. The ring is wired by the caller. A non-empty
// override pins the listen address (Restart reuses the crashed node's bound
// address — peers hold it); otherwise AddrFor or the in-memory default
// names the node.
func (c *Cluster) startNode(i int, override bus.Address) (*Node, error) {
	trustSet := make(map[string]bool, len(c.cfg.Trusted))
	for _, pub := range c.cfg.Trusted {
		trustSet[string(pub)] = true
	}
	addr := override
	if addr == "" {
		if c.cfg.AddrFor != nil {
			addr = c.cfg.AddrFor(i)
		} else {
			addr = bus.Address(fmt.Sprintf("dht:%d", i))
		}
	}
	// Metric/health names must be stable and unique per slot; a bind-time
	// address ("host:0") is neither, so AddrFor clusters label by index.
	entity := string(addr)
	if c.cfg.AddrFor != nil {
		entity = fmt.Sprintf("dht-%d", i)
	}
	node := &Node{
		id:      keyForAddr(addr),
		addr:    addr,
		started: make(chan struct{}),
		scheme:  c.cfg.Scheme,
		trusted: trustSet,
		store:   store.NewSharded[Key, Record](dhtShards, keyHash),
		subs:    store.NewSharded[Key, map[bus.Address]bool](dhtShards, keyHash),
		rep:     *c.cfg.Replication,
	}
	node.instr = obs.NewInstr(c.cfg.Obs, entity)
	if sub := c.cfg.Persistence.Sub(fmt.Sprintf("node-%d", i)); sub != nil {
		if c.cfg.Obs != nil {
			sub.Obs = c.cfg.Obs
		}
		log, err := wal.Open(*sub)
		if err != nil {
			return nil, fmt.Errorf("dht: node %d wal: %w", i, err)
		}
		node.walLog = log
		if err := node.recoverState(); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("dht: node %d recovery: %w", i, err)
		}
	}
	// Health checks and function metrics read through the slot pointer so
	// a restarted node's replacement is what they report on; both are
	// registered once per slot.
	if c.cfg.Obs != nil {
		if c.health == nil {
			c.health = make([]atomic.Pointer[Node], c.cfg.Nodes)
		}
		first := c.health[i].Load() == nil
		c.health[i].Store(node)
		if first {
			slot := &c.health[i]
			if node.walLog != nil {
				c.cfg.Obs.RegisterHealth(entity+"-journal", func() (string, error) {
					return slot.Load().healthCheck()
				})
			}
			c.cfg.Obs.RegisterHealth(entity+"-replication", func() (string, error) {
				return slot.Load().replicationHealth()
			})
			c.registerReplicaMetrics(entity, slot)
		}
	}
	ep, err := c.cfg.Network.Listen(addr, node.handle)
	if err != nil {
		if node.walLog != nil {
			_ = node.walLog.Close()
		}
		return nil, fmt.Errorf("dht: starting node %d: %w", i, err)
	}
	node.ep = ep
	// Adopt the address the transport actually bound ("host:0" requests
	// an ephemeral port) and re-derive the ring identity from it. Safe
	// here: the ring is wired after every node is up, so no request can
	// have observed the provisional identity.
	node.addr = ep.Addr()
	node.id = keyForAddr(node.addr)
	return node, nil
}

// registerReplicaMetrics exports one node slot's replication counters
// (DESIGN.md §14): sweep rounds, repairs, the current repair backlog, and
// the quorum-write tallies.
func (c *Cluster) registerReplicaMetrics(entity string, slot *atomic.Pointer[Node]) {
	reg := c.cfg.Obs
	labels := obs.Labels{"entity": entity}
	reg.Help("whopay_dht_sweep_rounds_total", "Anti-entropy sweep rounds completed by this DHT node.")
	reg.CounterFunc("whopay_dht_sweep_rounds_total", labels, func() int64 { return slot.Load().sweepRounds.Load() })
	reg.Help("whopay_dht_sweep_repairs_total", "Records repaired (pulled or pushed) by anti-entropy sweeps.")
	reg.CounterFunc("whopay_dht_sweep_repairs_total", labels, func() int64 { return slot.Load().sweepRepairs.Load() })
	reg.Help("whopay_dht_repair_backlog", "Divergent entries found in this node's last anti-entropy sweep.")
	reg.GaugeFunc("whopay_dht_repair_backlog", labels, func() float64 { return float64(slot.Load().repairBacklog.Load()) })
	reg.Help("whopay_dht_quorum_writes_total", "Quorum writes this node coordinated to a successful commit.")
	reg.CounterFunc("whopay_dht_quorum_writes_total", labels, func() int64 { return slot.Load().quorumWrites.Load() })
	reg.Help("whopay_dht_quorum_write_failures_total", "Quorum writes that could not gather W replica commits.")
	reg.CounterFunc("whopay_dht_quorum_write_failures_total", labels, func() int64 { return slot.Load().quorumFails.Load() })
}

// Restart crash-restarts node i: its endpoint and journal are dropped with
// no shutdown grace, and a replacement is recovered from the journal at the
// same address, in a fresh epoch. Requires Persistence (an in-memory node
// has nothing to recover from).
func (c *Cluster) Restart(i int) error {
	if c.cfg.Persistence == nil {
		return errors.New("dht: Restart needs Persistence")
	}
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dht: no node %d", i)
	}
	old := c.nodes[i]
	old.stopSweeper()
	_ = old.ep.Close()
	_ = old.walLog.Close()
	node, err := c.startNode(i, old.addr)
	if err != nil {
		return err
	}
	node.ring = c.ring
	c.nodes[i] = node
	close(node.started)
	node.startSweeper()
	return nil
}

// Kill crash-stops node i with no shutdown grace and no replacement: its
// endpoint closes mid-conversation and its journal handle drops. A later
// Restart(i) recovers it from the journal. The load harness's node-kill
// scenario is the caller.
func (c *Cluster) Kill(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dht: no node %d", i)
	}
	node := c.nodes[i]
	node.stopSweeper()
	_ = node.ep.Close()
	if node.walLog != nil {
		_ = node.walLog.Close()
	}
	return nil
}

// Trust adds trusted writers to every node after construction — for
// deployments where the writer's key is only known once the cluster is up
// (a broker built against this cluster's bound addresses). The trust set is
// lock-free read-only state on the serve path, so Trust must be called
// before the cluster sees any traffic.
func (c *Cluster) Trust(pubs ...sig.PublicKey) {
	for _, node := range c.nodes {
		for _, pub := range pubs {
			node.trusted[string(pub)] = true
		}
	}
}

// Nodes exposes the cluster's nodes (tests/metrics).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Addrs returns the node addresses for client construction.
func (c *Cluster) Addrs() []bus.Address { return append([]bus.Address(nil), c.addrs...) }

// Close shuts down every node and releases their journals.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.stopSweeper()
		if n.ep != nil {
			_ = n.ep.Close()
		}
		if n.walLog != nil {
			_ = n.walLog.Close()
		}
	}
}

// SweepAll runs one synchronous anti-entropy round on every node and
// returns the total divergence found — the deterministic lever tests and
// convergence waits use instead of the background tickers.
func (c *Cluster) SweepAll() int {
	total := 0
	for _, n := range c.nodes {
		total += n.SweepOnce()
	}
	return total
}

// Divergence counts, across every key any node stores, the replica-set
// members whose copy is missing or version-mismatched — 0 means digest
// parity across every replica set. Reads racing live writes can inflate
// the count; call it on a quiesced cluster (the post-run audit does).
func (c *Cluster) Divergence() int {
	type holding struct {
		version uint64
		ok      bool
	}
	byAddr := make(map[bus.Address]*Node, len(c.nodes))
	for _, n := range c.nodes {
		byAddr[n.addr] = n
	}
	keys := make(map[Key]bool)
	for _, n := range c.nodes {
		n.store.Range(func(k Key, _ Record) bool {
			keys[k] = true
			return true
		})
	}
	divergent := 0
	for k := range keys {
		// Replica sets are ring-static, so any node's view serves.
		set := c.nodes[0].replicaSet(k)
		var want holding
		views := make([]holding, 0, len(set))
		for _, ref := range set {
			node := byAddr[ref.addr]
			if node == nil {
				continue
			}
			rec, ok := node.store.Get(k)
			h := holding{version: rec.Version, ok: ok}
			views = append(views, h)
			if ok && (!want.ok || rec.Version > want.version) {
				want = h
			}
		}
		for _, h := range views {
			if !h.ok || h.version != want.version {
				divergent++
			}
		}
	}
	return divergent
}

// WaitConverged polls until Divergence reaches zero or the timeout lapses,
// sweeping synchronously between polls so convergence does not depend on
// background ticker phase. Returns whether parity was reached.
func (c *Cluster) WaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if c.Divergence() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		c.SweepAll()
		time.Sleep(10 * time.Millisecond)
	}
}
