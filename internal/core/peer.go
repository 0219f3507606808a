package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/groupsig"
	"whopay/internal/indirect"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
)

// SyncMode selects how an owner reconciles state after rejoining (paper
// Section 5.2): proactive synchronizes with the broker on every rejoin;
// lazy defers to a public-binding-list check on the first request per coin.
type SyncMode int

// Sync modes.
const (
	SyncProactive SyncMode = iota
	SyncLazy
)

// peerShards is the lock-domain count for a peer's wallet stores. Wallets
// are smaller than the broker's books, so fewer shards suffice.
const peerShards = 16

// Prober reports whether an address is currently reachable. The in-memory
// bus implements it; peers use it to pick payment methods ("transfer an
// online coin") without burning failed calls. Without a prober, peers probe
// by attempting the call.
type Prober interface {
	Online(addr bus.Address) bool
}

// Presence lets a peer announce its own availability to the transport (the
// in-memory bus implements it via SetOnline).
type Presence interface {
	SetOnline(addr bus.Address, online bool)
}

// PeerConfig configures a Peer. Every field is one some caller sets
// (TestConfigFieldsAreSet holds the tree to that). What no caller varies is
// fixed behaviour, not a knob: a payment offer lives offerTTL, a watch alarm
// is always reported to the broker, and the DHT client always routes
// one-hop.
type PeerConfig struct {
	// ID is the peer's identity (registered with the directory and the
	// judge).
	ID string
	// Network to listen on; Addr is the peer's address.
	Network bus.Network
	Addr    bus.Address
	// Scheme is the signature scheme; Recorder (optional) attributes
	// this peer's crypto micro-operations.
	Scheme   sig.Scheme
	Recorder sig.Recorder
	// Clock defaults to time.Now.
	Clock Clock
	// RenewalPeriod defaults to DefaultRenewalPeriod.
	RenewalPeriod time.Duration
	// Directory is the trusted identity/address registry.
	Directory *Directory
	// BrokerAddr and BrokerPub identify the broker.
	BrokerAddr bus.Address
	BrokerPub  sig.PublicKey
	// Router, when set, replaces the single-broker view with a federated
	// one: every broker-bound call is routed to the leader of the shard
	// owning the call's coin or payout key, verification uses the owning
	// shard's broker key, and ErrWrongShard/ErrNotLeader redirects are
	// followed (DESIGN.md §13). Nil keeps BrokerAddr/BrokerPub authoritative.
	Router ShardRouter
	// Judge enrolls the peer at construction; JudgeAddr instead enrolls
	// it over the bus (multi-process deployments; see JudgeServer). One
	// of the two is required.
	Judge     *Judge
	JudgeAddr bus.Address
	// CredPool is the initial group-credential pool size (default 32).
	CredPool int
	// DHTNodes enables the public binding list; empty disables. With it,
	// an owner publishes every binding it signs.
	DHTNodes []bus.Address
	// DHTReplication sets the quorums and the hot-coin lease TTL of the
	// peer's DHT client (DESIGN.md §14); the client routes one-hop to
	// each key's replica set. Nil means the replica.Config defaults.
	DHTReplication *replica.Config
	// WatchHeldCoins subscribes to held coins' public bindings and
	// raises fraud alerts on unexpected re-bindings, each filed with the
	// broker as a FraudReport — the real-time double-spending detection
	// of Section 5.1. It also makes the payee cross-check the public
	// binding list before accepting an owner-signed binding. Needs
	// DHTNodes.
	WatchHeldCoins bool
	// IndirectServers enable owner-anonymous coins (Section 5.2).
	IndirectServers []bus.Address
	// SyncMode selects proactive or lazy owner synchronization.
	SyncMode SyncMode
	// Prober and Presence integrate with the transport's availability
	// model (both optional).
	Prober   Prober
	Presence Presence
	// Rand, when set, makes all protocol randomness (nonces, initial
	// sequence numbers) deterministic — the simulator injects a seeded
	// source. Defaults to crypto/rand.
	Rand *mrand.Rand
	// Retry, when set, wraps every outbound protocol call (to the broker,
	// owners, payees and the DHT) in capped exponential backoff with
	// jitter, retrying only transient transport failures — never protocol
	// rejections. Nil (the default) disables retries entirely, so message
	// counts stay exact for the simulator and the paper's cost metrics.
	Retry *bus.RetryPolicy
	// AuditLogCap bounds per-coin relinquishment logs (0 = unlimited).
	// The simulator caps them; real deployments keep full trails.
	AuditLogCap int
	// Persistence, when set, makes the wallet durable: identity keys and
	// every owned/held coin mutation are journaled to a write-ahead log
	// under Persistence.Dir before the operation is treated as done, and
	// NewPeer replays any existing journal at startup (see RecoverPeer).
	// Nil keeps the wallet purely in memory — the pre-existing behavior.
	Persistence *wal.Config
	// Obs, when non-nil, instruments the peer (DESIGN.md §11): spans and
	// latency histograms per protocol operation (client- and server-side),
	// WAL and sig-cache metrics, retry counts, and a /healthz check on
	// PersistenceErr. Nil (the default) keeps message counts, allocations,
	// and error shapes byte-identical to an uninstrumented peer.
	Obs *obs.Registry
}

// ownedCoin is the owner-side state for one coin. The coin, its keys and
// the handle keys are immutable after creation; everything mutable sits
// under mu. The store's shard locks only order map membership — entry
// state is the entry's own business.
type ownedCoin struct {
	// svc serializes servicing (transfer/renewal) of this coin: the
	// validate→deliver→commit sequence must not interleave, or two
	// requests citing the same sequence number could both deliver.
	// TryLock (never Lock) so a malicious payee that calls back into
	// the owner during delivery gets ErrCoinBusy instead of a deadlock.
	svc        sync.Mutex
	c          *coin.Coin
	coinKeys   sig.KeyPair
	handleKeys *sig.KeyPair

	mu       sync.Mutex
	binding  *coin.Binding // nil until first issued
	selfHeld bool
	dirty    bool // lazy sync: re-check the public binding before servicing
	log      map[uint64]RelinquishProof
}

// heldCoin is the holder-side state for one coin. c, holderKeys and order
// are immutable after insertion; binding and inFlight are guarded by mu.
type heldCoin struct {
	c          *coin.Coin
	holderKeys sig.KeyPair
	order      uint64 // acquisition stamp: HeldCoins and pickHeld sort by it

	mu       sync.Mutex
	binding  *coin.Binding
	inFlight bool // a transfer we initiated is in progress; ignore watch alarms
}

// pendingOffer is an open payment offer awaiting delivery (immutable).
type pendingOffer struct {
	holderKeys sig.KeyPair
	nonce      []byte
	value      int64
	created    time.Time
}

// FraudAlert records a watch alarm: the public binding list re-bound a coin
// this peer holds, without its consent.
type FraudAlert struct {
	CoinID   coin.ID
	Mine     coin.Binding
	Observed coin.Binding
	Verdict  string // broker's verdict if the alert was reported
}

// Peer is a WhoPay participant: owner of the coins it purchased, holder of
// the coins paid to it, payer and payee in transactions. Safe for
// concurrent use.
//
// Wallet state lives in sharded stores so payments against different coins
// proceed on independent lock domains. The lock hierarchy, outermost first:
// an owned coin's svc lock (service serialization), then store shard locks,
// then entry locks (ownedCoin.mu / heldCoin.mu) — never a store write while
// holding an entry lock, never an entry lock outlives the closure it was
// taken in during a Range.
type Peer struct {
	cfg      PeerConfig
	suite    sig.Suite
	cache    *sig.Cached        // verification fast path (DESIGN.md §9)
	gsv      *groupsig.Verifier // CRL-aware group-signature verifier
	keys     sig.KeyPair
	member   *groupsig.MemberKey
	groupPub sig.PublicKey // the judge's group key, learned at enrollment
	ep       bus.Endpoint
	caller   bus.Caller // ep, or a RetryCaller around it when cfg.Retry is set
	dhtc     *dht.Client
	indir    *indirect.Client
	ops      OpCounter
	instr    *instr // nil unless cfg.Obs is set

	randMu sync.Mutex
	rand   *mrand.Rand

	owned   *store.Sharded[coin.ID, *ownedCoin]
	held    *store.Sharded[coin.ID, *heldCoin]
	offers  *store.Sharded[string, *pendingOffer]
	heldSeq atomic.Uint64 // acquisition stamps for held coins

	// Micropayment channels (DESIGN.md §12), both sides keyed by chain
	// root. settleCredits pins settlement coins to the channel they
	// credited (close-replay idempotence, no double-credit).
	channels      *store.Sharded[string, *payerChannel]
	vchannels     *store.Sharded[string, *vendorChannel]
	settleCredits *store.Sharded[coin.ID, *settleRecord]

	journal   *wal.Log // nil when cfg.Persistence is nil
	recovered bool     // wallet state was replayed at startup

	// stateMu guards the peer-global scalars: presence, trigger
	// versioning, and the alert log.
	stateMu     sync.Mutex
	online      bool
	alerts      []FraudAlert
	trigVersion uint64
}

// NewPeer creates a peer, registers its identity with the directory,
// enrolls it with the judge (in process or over the bus), and starts
// listening. The peer starts online.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Network == nil || cfg.Scheme == nil || cfg.Directory == nil {
		return nil, errors.New("core: peer needs Network, Scheme and Directory")
	}
	if cfg.ID == "" {
		return nil, errors.New("core: peer needs an ID")
	}
	if cfg.Addr == "" {
		cfg.Addr = bus.Address("peer:" + cfg.ID)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.RenewalPeriod <= 0 {
		cfg.RenewalPeriod = DefaultRenewalPeriod
	}
	if cfg.CredPool <= 0 {
		cfg.CredPool = 32
	}
	p := &Peer{
		cfg:    cfg,
		suite:  sig.Suite{Scheme: cfg.Scheme, Rec: cfg.Recorder},
		rand:   cfg.Rand,
		online: true,
		owned:  store.NewSharded[coin.ID, *ownedCoin](peerShards, coinKey),
		held:   store.NewSharded[coin.ID, *heldCoin](peerShards, coinKey),
		offers: store.NewSharded[string, *pendingOffer](peerShards, store.StringHash[string]),

		channels:      store.NewSharded[string, *payerChannel](peerShards, store.StringHash[string]),
		vchannels:     store.NewSharded[string, *vendorChannel](peerShards, store.StringHash[string]),
		settleCredits: store.NewSharded[coin.ID, *settleRecord](peerShards, coinKey),
	}
	p.suite, p.cache = sig.NewCachedSuite(p.suite, sig.CacheOptions{})
	if cfg.Persistence != nil {
		pc := *cfg.Persistence // copy: don't mutate the caller's config
		if cfg.Obs != nil {
			pc.Obs = cfg.Obs
			if pc.Entity == "" {
				pc.Entity = cfg.ID
			}
		}
		log, err := wal.Open(pc)
		if err != nil {
			return nil, fmt.Errorf("core: peer wal: %w", err)
		}
		p.journal = log
		found, err := p.recoverPeerState()
		if err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("core: peer recovery: %w", err)
		}
		p.recovered = found
	}
	if len(p.keys.Public) == 0 {
		// Identity keys are one-time enrollment setup, not part of any
		// operation's cost: generate them outside the recorded suite.
		keys, err := cfg.Scheme.GenerateKey()
		if err != nil {
			p.closePersist()
			return nil, fmt.Errorf("core: peer keygen: %w", err)
		}
		p.keys = keys
		if p.journal != nil {
			p.journalPeerKeys()
			if err := p.journal.Err(); err != nil {
				p.closePersist()
				return nil, fmt.Errorf("core: journaling peer keys: %w", err)
			}
		}
	}

	switch {
	case cfg.Judge != nil:
		member, err := cfg.Judge.Enroll(cfg.ID, cfg.CredPool)
		if err != nil {
			p.closePersist()
			return nil, fmt.Errorf("core: enrolling %s: %w", cfg.ID, err)
		}
		p.member = member
		p.groupPub = cfg.Judge.GroupPublicKey()
	case cfg.JudgeAddr != "":
		// Remote enrollment happens after Listen (it needs the
		// endpoint).
	default:
		p.closePersist()
		return nil, errors.New("core: peer needs a Judge or a JudgeAddr")
	}

	ep, err := cfg.Network.Listen(cfg.Addr, p.dispatch)
	if err != nil {
		p.closePersist()
		return nil, fmt.Errorf("core: peer listen: %w", err)
	}
	p.ep = ep
	p.caller = ep
	if cfg.Retry != nil {
		p.caller = bus.NewRetryCaller(ep, *cfg.Retry)
	}
	// Adopt the actually-bound address (TCP ":0" binds pick a port).
	p.cfg.Addr = ep.Addr()
	cfg.Directory.Register(cfg.ID, p.keys.Public, p.cfg.Addr)

	if p.member == nil {
		member, groupPub, err := p.enrollRemotely(cfg.JudgeAddr, p.cfg.CredPool)
		if err != nil {
			_ = ep.Close()
			p.closePersist()
			return nil, fmt.Errorf("core: remote enrollment of %s: %w", cfg.ID, err)
		}
		p.member = member
		p.groupPub = groupPub
	}
	// The group key is final here in both enrollment branches, so the
	// CRL-aware verifier can bind to it.
	p.gsv = groupsig.NewVerifier(p.groupPub)
	p.gsv.OnRevoke = p.cache.InvalidateKey
	if len(cfg.DHTNodes) > 0 {
		p.dhtc, err = dht.NewClient(ep, cfg.DHTNodes, dht.OneHop)
		if err != nil {
			_ = ep.Close()
			p.closePersist()
			return nil, fmt.Errorf("core: peer dht client: %w", err)
		}
		if cfg.Retry != nil {
			p.dhtc.WithRetry(*cfg.Retry)
		}
		if cfg.DHTReplication != nil {
			p.dhtc.WithReplication(*cfg.DHTReplication)
		}
	}
	if len(cfg.IndirectServers) > 0 {
		p.indir, err = indirect.NewClient(ep, cfg.IndirectServers)
		if err != nil {
			_ = ep.Close()
			p.closePersist()
			return nil, fmt.Errorf("core: peer indirect client: %w", err)
		}
	}
	if cfg.Obs != nil {
		p.instr = newInstr(cfg.Obs, cfg.ID)
		registerOpCounts(cfg.Obs, cfg.ID, &p.ops)
		cfg.Obs.Help("whopay_channels_open", "Open micropayment channels, by entity and side.")
		cfg.Obs.GaugeFunc("whopay_channels_open", obs.Labels{"entity": cfg.ID, "side": "payer"},
			func() float64 { return float64(p.openChannelCount(false)) })
		cfg.Obs.GaugeFunc("whopay_channels_open", obs.Labels{"entity": cfg.ID, "side": "vendor"},
			func() float64 { return float64(p.openChannelCount(true)) })
		if cfg.Retry != nil {
			cfg.Obs.Help("whopay_retries_total", "Transient-failure retries issued by the retry layer, by entity.")
			cfg.Obs.CounterFunc("whopay_retries_total", obs.Labels{"entity": cfg.ID}, p.Retries)
			cfg.Obs.Help("whopay_redirects_total", "Redirect hints followed by the retry layer, by entity.")
			cfg.Obs.CounterFunc("whopay_redirects_total", obs.Labels{"entity": cfg.ID}, p.Redirects)
		}
		registerCacheMetrics(cfg.Obs, cfg.ID, func() (int64, int64, int64, int64) {
			s := p.cache.Stats()
			return s.Hits, s.Misses, s.KeyHits, s.KeyMisses
		})
		if p.dhtc != nil {
			cfg.Obs.Help("whopay_dht_lease_hits_total", "DHT lease cache hits, by entity.")
			cfg.Obs.CounterFunc("whopay_dht_lease_hits_total", obs.Labels{"entity": cfg.ID},
				func() int64 { h, _, _, _ := p.dhtc.LeaseStats(); return int64(h) })
			cfg.Obs.Help("whopay_dht_lease_misses_total", "DHT lease cache misses, by entity.")
			cfg.Obs.CounterFunc("whopay_dht_lease_misses_total", obs.Labels{"entity": cfg.ID},
				func() int64 { _, m, _, _ := p.dhtc.LeaseStats(); return int64(m) })
			cfg.Obs.Help("whopay_dht_stale_reads_total", "Backwards-in-time DHT reads observed by the lease watermark (stale quorum reads), by entity.")
			cfg.Obs.CounterFunc("whopay_dht_stale_reads_total", obs.Labels{"entity": cfg.ID},
				func() int64 { _, _, s, _ := p.dhtc.LeaseStats(); return int64(s) })
			cfg.Obs.Help("whopay_dht_reads_repaired_total", "Stale DHT replicas back-filled by client read-repair, by entity.")
			cfg.Obs.CounterFunc("whopay_dht_reads_repaired_total", obs.Labels{"entity": cfg.ID},
				func() int64 { _, _, _, r := p.dhtc.LeaseStats(); return int64(r) })
		}
		if p.journal != nil {
			cfg.Obs.RegisterHealth(cfg.ID+"-journal", func() (string, error) {
				if err := p.PersistenceErr(); err != nil {
					return "", err
				}
				return "journaling", nil
			})
		}
	}
	return p, nil
}

// ID returns the peer's identity.
func (p *Peer) ID() string { return p.cfg.ID }

// Addr returns the peer's bus address (the actually-bound one).
func (p *Peer) Addr() bus.Address { return p.cfg.Addr }

// DHTLeaseStats reports the DHT client's lease cache counters (hits,
// misses, stale reads observed, replicas repaired). Zeros when the peer has
// no DHT client or replication is off.
func (p *Peer) DHTLeaseStats() (hits, misses, stale, repaired uint64) {
	if p.dhtc == nil {
		return 0, 0, 0, 0
	}
	return p.dhtc.LeaseStats()
}

// PublicKey returns the peer's identity key.
func (p *Peer) PublicKey() sig.PublicKey { return p.keys.Public.Clone() }

// Ops returns a snapshot of this peer's operation counts.
func (p *Peer) Ops() OpCounts { return p.ops.Snapshot() }

// RevokeCredentials adds the given credential serials to the peer's CRL and
// invalidates every cached verification artifact tied to the matching
// one-time public keys (see Judge.Revoke, Broker.RevokeCredentials).
func (p *Peer) RevokeCredentials(serials []uint64, pubs []sig.PublicKey) {
	p.gsv.Revoke(serials, pubs)
}

// InvalidateCryptoCache drops all memoized verification state (group-key
// rotation).
func (p *Peer) InvalidateCryptoCache() { p.cache.Invalidate() }

// Close stops the peer and releases its journal (when persistent).
func (p *Peer) Close() error {
	err := p.ep.Close()
	p.closePersist()
	return err
}

// closePersist releases the journal handle, if any.
func (p *Peer) closePersist() {
	if p.journal != nil {
		_ = p.journal.Close()
	}
}

// Online reports the peer's own availability flag.
func (p *Peer) Online() bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return p.online
}

// GoOffline marks the peer offline (and tells the transport, when wired).
func (p *Peer) GoOffline() {
	p.stateMu.Lock()
	p.online = false
	p.stateMu.Unlock()
	if p.cfg.Presence != nil {
		p.cfg.Presence.SetOnline(p.cfg.Addr, false)
	}
}

// GoOnline brings the peer back: it re-announces presence, re-registers
// indirection triggers for its anonymous coins, and reconciles owner state
// per the configured sync mode — a broker synchronization (proactive) or
// marking owned coins for a lazy public-binding check on first use.
func (p *Peer) GoOnline() error {
	p.stateMu.Lock()
	p.online = true
	p.trigVersion++
	version := p.trigVersion
	p.stateMu.Unlock()

	var anon []*ownedCoin
	p.owned.Range(func(_ coin.ID, oc *ownedCoin) bool {
		if p.cfg.SyncMode == SyncLazy {
			oc.mu.Lock()
			oc.dirty = true
			oc.mu.Unlock()
		}
		if oc.handleKeys != nil {
			anon = append(anon, oc)
		}
		return true
	})

	if p.cfg.Presence != nil {
		p.cfg.Presence.SetOnline(p.cfg.Addr, true)
	}
	if p.indir != nil {
		for _, oc := range anon {
			if err := p.indir.Register(p.suite, *oc.handleKeys, p.cfg.Addr, version); err != nil {
				return fmt.Errorf("core: re-registering trigger: %w", err)
			}
		}
	}
	if p.cfg.SyncMode == SyncProactive {
		return p.Sync()
	}
	return nil
}

// call issues one outbound protocol call through the retry layer when one
// is configured (cfg.Retry), or straight through the endpoint otherwise.
// Inbound handling and endpoint lifecycle stay on p.ep.
func (p *Peer) call(to bus.Address, msg any) (any, error) {
	return p.caller.Call(to, msg)
}

// Retries reports how many outbound retries this peer has issued (zero
// when no retry policy is configured).
func (p *Peer) Retries() int64 {
	if rc, ok := p.caller.(*bus.RetryCaller); ok {
		return rc.Retries()
	}
	return 0
}

// Redirects reports how many redirect hints this peer has followed —
// ErrWrongShard/ErrNotLeader rejections that pointed at the right endpoint
// (zero when no retry policy is configured).
func (p *Peer) Redirects() int64 {
	if rc, ok := p.caller.(*bus.RetryCaller); ok {
		return rc.Redirects()
	}
	return 0
}

func (p *Peer) dispatch(_ bus.Address, msg any) (any, error) {
	// Each case opens a span + latency sample inline (no closure: a
	// wrapper func would allocate even with instrumentation disabled,
	// breaking the byte-identical contract of a nil Obs knob).
	switch m := msg.(type) {
	case OfferRequest:
		sp := p.instr.Begin("serve-offer")
		resp, err := p.handleOffer(m)
		p.instr.End(sp, err)
		return resp, err
	case DeliverRequest:
		sp := p.instr.Begin("serve-deliver")
		resp, err := p.handleDeliver(m)
		p.instr.End(sp, err)
		return resp, err
	case TransferRequest:
		sp := p.instr.Begin("serve-transfer")
		resp, err := p.serviceOwned(transferReq(&m))
		p.instr.End(sp, err)
		return resp, err
	case RenewRequest:
		sp := p.instr.Begin("serve-renewal")
		resp, err := p.serviceOwned(renewReq(&m))
		p.instr.End(sp, err)
		return resp, err
	case DisputeRequest:
		sp := p.instr.Begin("serve-dispute")
		resp, err := p.handleDispute(m)
		p.instr.End(sp, err)
		return resp, err
	case ChannelOpenRequest:
		sp := p.instr.Begin("serve-channel-open")
		resp, err := p.handleChannelOpen(m)
		p.instr.End(sp, err)
		return resp, err
	case ChannelPayRequest:
		sp := p.instr.Begin("serve-channel-pay")
		resp, err := p.handleChannelPay(m)
		p.instr.End(sp, err)
		return resp, err
	case ChannelCloseRequest:
		sp := p.instr.Begin("serve-channel-close")
		resp, err := p.handleChannelClose(m)
		p.instr.End(sp, err)
		return resp, err
	case dht.Notify:
		sp := p.instr.Begin("serve-notify")
		resp, err := p.handleNotify(m)
		p.instr.End(sp, err)
		return resp, err
	default:
		return nil, fmt.Errorf("%w: peer got %T", ErrBadRequest, msg)
	}
}

// randBytes draws protocol randomness from the injected source or
// crypto/rand.
func (p *Peer) randBytes(n int) []byte {
	out := make([]byte, n)
	if p.rand != nil {
		p.randMu.Lock()
		for i := range out {
			out[i] = byte(p.rand.Intn(256))
		}
		p.randMu.Unlock()
		return out
	}
	if _, err := rand.Read(out); err != nil {
		// crypto/rand failure is unrecoverable; fall back to a
		// time-derived nonce rather than panicking mid-protocol.
		binary.BigEndian.PutUint64(out, uint64(p.cfg.Clock().UnixNano()))
	}
	return out
}

// randSeq draws the random initial sequence number the paper assigns at
// issue time ("bind pkCU to pkCV, a randomly chosen sequence number").
func (p *Peer) randSeq() uint64 {
	if p.rand != nil {
		p.randMu.Lock()
		defer p.randMu.Unlock()
		return uint64(p.rand.Uint32()) + 1
	}
	return uint64(binary.BigEndian.Uint32(p.randBytes(4))) + 1
}

// HeldCoins lists the coins this peer currently holds, oldest first (by
// acquisition stamp).
func (p *Peer) HeldCoins() []coin.ID {
	type entry struct {
		id    coin.ID
		order uint64
	}
	var entries []entry
	p.held.Range(func(id coin.ID, hc *heldCoin) bool {
		entries = append(entries, entry{id, hc.order})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].order < entries[j].order })
	out := make([]coin.ID, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// HeldValue sums the face value of held coins.
func (p *Peer) HeldValue() int64 {
	var t int64
	p.held.Range(func(_ coin.ID, hc *heldCoin) bool {
		t += hc.c.Value
		return true
	})
	return t
}

// OwnedCoins lists the coins this peer owns (purchased).
func (p *Peer) OwnedCoins() []coin.ID { return p.owned.Keys() }

// SelfHeldCoins lists owned coins not yet issued (spendable by issue).
func (p *Peer) SelfHeldCoins() []coin.ID {
	var out []coin.ID
	p.owned.Range(func(id coin.ID, oc *ownedCoin) bool {
		oc.mu.Lock()
		selfHeld := oc.selfHeld
		oc.mu.Unlock()
		if selfHeld {
			out = append(out, id)
		}
		return true
	})
	return out
}

// HeldCoinOwner returns the owner identity of a held coin ("" for
// owner-anonymous coins). The simulator uses it to route renewals the way
// the paper's peers do — via the owner when online, the broker otherwise.
func (p *Peer) HeldCoinOwner(id coin.ID) (string, bool) {
	hc, ok := p.held.Get(id)
	if !ok {
		return "", false
	}
	return hc.c.Owner, true
}

// HeldBindingExpiry returns the expiry of the peer's binding for a held
// coin (zero time if unknown).
func (p *Peer) HeldBindingExpiry(id coin.ID) (time.Time, bool) {
	hc, ok := p.held.Get(id)
	if !ok {
		return time.Time{}, false
	}
	hc.mu.Lock()
	expiry := hc.binding.Expiry
	hc.mu.Unlock()
	return time.Unix(expiry, 0), true
}

// HeldBinding returns the peer's current binding for a held coin.
func (p *Peer) HeldBinding(id coin.ID) (*coin.Binding, bool) {
	hc, ok := p.held.Get(id)
	if !ok {
		return nil, false
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.binding.Clone(), true
}

// OwnerBinding returns the owner-side binding for an owned coin (nil if
// never issued).
func (p *Peer) OwnerBinding(id coin.ID) (*coin.Binding, bool) {
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, false
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.binding == nil {
		return nil, true
	}
	return oc.binding.Clone(), true
}

// Alerts returns fraud alerts raised by the double-spend watch.
func (p *Peer) Alerts() []FraudAlert {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return append([]FraudAlert(nil), p.alerts...)
}

// unwatch drops the DHT subscription for a relinquished coin.
func (p *Peer) unwatch(id coin.ID) {
	if p.dhtc == nil || !p.cfg.WatchHeldCoins {
		return
	}
	_ = p.dhtc.Unsubscribe(dht.KeyFor(sig.PublicKey(id)), p.cfg.Addr)
}
