package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/groupsig"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
)

// Clock supplies time to protocol entities; the simulator injects virtual
// time.
type Clock func() time.Time

// DefaultRenewalPeriod is the coin renewal period; the paper's simulations
// use 3 days.
const DefaultRenewalPeriod = 72 * time.Hour

// brokerShards is the lock-domain count for each of the broker's state
// stores. The broker is the system's hot spot — every purchase, deposit,
// sync, and downtime operation lands here — so it gets more shards than
// peers' wallets.
const brokerShards = 64

// BrokerConfig configures a Broker.
type BrokerConfig struct {
	// Network to listen on; Addr is the broker's address.
	Network bus.Network
	Addr    bus.Address
	// Scheme is the signature scheme; Recorder (optional) attributes the
	// broker's crypto micro-operations.
	Scheme   sig.Scheme
	Recorder sig.Recorder
	// Clock defaults to time.Now.
	Clock Clock
	// RenewalPeriod defaults to DefaultRenewalPeriod.
	RenewalPeriod time.Duration
	// Directory resolves identities (the trusted PKI).
	Directory *Directory
	// GroupPub is the judge's group public key.
	GroupPub sig.PublicKey
	// DHTNodes enables publishing downtime bindings to the public
	// binding list; empty disables.
	DHTNodes []bus.Address
	// DHTReplication sets the quorums of the broker's DHT client
	// (DESIGN.md §14); the client routes one-hop to each key's replica
	// set. Nil means the replica.Config defaults.
	DHTReplication *replica.Config
	// InitialCredit, when positive, funds every identity's account with
	// this amount and makes purchases debit it. Deposits credit the
	// payout reference's account, so depositing refills budgets — the
	// economics that make policy III's "deposit an offline coin, then
	// purchase" reachable. Zero means unlimited credit.
	InitialCredit int64
	// Persistence, when non-nil, makes the broker crash-safe: every
	// protocol-relevant mutation is journaled to a write-ahead log under
	// Persistence.Dir before the response is sent, and NewBroker recovers
	// any durable state it finds there (DESIGN.md §10). Nil keeps the
	// broker purely in-memory with behavior identical to before the
	// durability layer existed.
	Persistence *wal.Config
	// Obs, when non-nil, instruments the broker (DESIGN.md §11): a span
	// plus latency-histogram sample per served operation, WAL and
	// sig-cache metrics, and a /healthz check on PersistenceErr. Nil (the
	// default) keeps message counts, allocations, and error shapes
	// byte-identical to an uninstrumented broker.
	Obs *obs.Registry
	// Federation, when non-nil, makes this broker one shard of a
	// federated trust root (DESIGN.md §13): it serves only keys homing on
	// its shard, rejects foreign keys with ErrWrongShard redirects, and
	// settles cross-shard deposit credits through the two-phase
	// settlement path. Requires InitialCredit zero — purchase budgets
	// would need an account shard of their own.
	Federation *FederationConfig
}

// depositRecord remembers a redeemed coin.
type depositRecord struct {
	binding   *coin.Binding
	groupSig  groupsig.Signature
	payoutRef string
	when      time.Time
}

// FraudCase records detected or suspected fraud for the judge.
type FraudCase struct {
	ID       uint64
	Kind     string // "double-deposit", "owner-fraud", "owner-unreachable", "legitimate-chain"
	CoinID   coin.ID
	Verdict  string
	Punished string
	// Evidence for the judge: group signatures (openable) and the
	// conflicting bindings.
	GroupSigs [][2]any // pairs of (message bytes, groupsig.Signature)
	Bindings  []coin.Binding
}

// Broker is WhoPay's central bank: it mints and redeems coins, services
// downtime transfers and renewals, synchronizes owners after rejoin, and
// adjudicates fraud reports (with the judge for anonymous parties). It is
// the only entity that can create value. Safe for concurrent use.
//
// State lives in sharded stores (internal/store) so requests touching
// different coins or accounts proceed on independent lock domains; the
// per-coin service locks in svc remain the only cross-map ordering point
// (the validate→deliver→commit sequence of downtime operations must not
// interleave per coin). The fraud-case log keeps a dedicated mutex: it is
// an append-only audit record, not request-path state.
type Broker struct {
	cfg   BrokerConfig
	suite sig.Suite
	cache *sig.Cached        // verification fast path (DESIGN.md §9)
	gsv   *groupsig.Verifier // CRL-aware group-signature verifier
	keys  sig.KeyPair
	ep    bus.Endpoint
	dhtc  *dht.Client
	ops   OpCounter
	instr *instr // nil unless cfg.Obs is set

	svc         *store.Sharded[coin.ID, *sync.Mutex] // per-coin service serialization
	coins       *store.Sharded[coin.ID, *coin.Coin]
	purchasedBy *store.Sharded[coin.ID, string]
	downtime    *store.Sharded[coin.ID, *coin.Binding]
	pendingSync *store.Sharded[string, []coin.ID]
	relinquish  *store.Sharded[coin.ID, map[uint64]RelinquishProof] // audit trail for broker-era re-bindings
	deposited   *store.Sharded[coin.ID, *depositRecord]
	ledger      *store.Ledger
	frozen      *store.Sharded[string, struct{}]
	settled     *store.Sharded[coin.ID, *settledRec] // payout-shard settlement dedup

	// Federation runtime (nil / unused on an unfederated broker).
	fed          *FederationConfig
	settleCaller bus.Caller
	settleMu     sync.Mutex
	settleState  map[coin.ID]settleRec // outbound settlements, by redeemed coin
	settleKick   chan struct{}
	settleStop   chan struct{}
	settleDone   chan struct{}

	journal   *wal.Log // nil when Persistence is not configured
	recovered bool     // durable state was found and replayed

	depositOccupancy *obs.Histogram // deposits per flush (nil: no Obs)
	depositFlushes   *obs.Counter

	issuedValue    atomic.Int64
	depositedValue atomic.Int64

	casesMu sync.RWMutex
	cases   []FraudCase
	caseSeq uint64
}

// coinKey hashes coin IDs into store shards.
func coinKey(id coin.ID) uint64 { return store.StringHash(id) }

// NewBroker creates and starts a broker.
func NewBroker(cfg BrokerConfig) (*Broker, error) {
	if cfg.Network == nil || cfg.Scheme == nil || cfg.Directory == nil {
		return nil, errors.New("core: broker needs Network, Scheme and Directory")
	}
	if cfg.Addr == "" {
		cfg.Addr = "broker"
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.RenewalPeriod <= 0 {
		cfg.RenewalPeriod = DefaultRenewalPeriod
	}
	if cfg.Federation != nil {
		f := *cfg.Federation // copy: don't share the caller's struct
		if f.Shards <= 0 || f.Index < 0 || f.Index >= f.Shards {
			return nil, fmt.Errorf("core: federation shard %d of %d out of range", f.Index, f.Shards)
		}
		if cfg.InitialCredit > 0 {
			return nil, errors.New("core: federation does not support InitialCredit budgets")
		}
		cfg.Federation = &f
	}
	b := &Broker{
		cfg:         cfg,
		suite:       sig.Suite{Scheme: cfg.Scheme, Rec: cfg.Recorder},
		svc:         store.NewSharded[coin.ID, *sync.Mutex](brokerShards, coinKey),
		coins:       store.NewSharded[coin.ID, *coin.Coin](brokerShards, coinKey),
		purchasedBy: store.NewSharded[coin.ID, string](brokerShards, coinKey),
		downtime:    store.NewSharded[coin.ID, *coin.Binding](brokerShards, coinKey),
		pendingSync: store.NewSharded[string, []coin.ID](brokerShards, store.StringHash[string]),
		relinquish:  store.NewSharded[coin.ID, map[uint64]RelinquishProof](brokerShards, coinKey),
		deposited:   store.NewSharded[coin.ID, *depositRecord](brokerShards, coinKey),
		ledger:      store.NewLedger(brokerShards, cfg.InitialCredit),
		frozen:      store.NewSharded[string, struct{}](brokerShards, store.StringHash[string]),
		settled:     store.NewSharded[coin.ID, *settledRec](brokerShards, coinKey),
		fed:         cfg.Federation,
		settleState: map[coin.ID]settleRec{},
		settleKick:  make(chan struct{}, 1),
		settleStop:  make(chan struct{}),
		settleDone:  make(chan struct{}),
	}
	if cfg.Persistence != nil {
		pc := *cfg.Persistence // copy: don't mutate the caller's config
		if cfg.Obs != nil {
			pc.Obs = cfg.Obs
			if pc.Entity == "" {
				pc.Entity = "broker"
			}
		}
		log, err := wal.Open(pc)
		if err != nil {
			return nil, fmt.Errorf("core: broker wal: %w", err)
		}
		b.journal = log
	}
	b.suite, b.cache = sig.NewCachedSuite(b.suite, sig.CacheOptions{})
	b.gsv = groupsig.NewVerifier(cfg.GroupPub)
	// A revoked credential's one-time key must not keep satisfying verifies
	// out of the memo.
	b.gsv.OnRevoke = b.cache.InvalidateKey
	if b.journal != nil {
		recovered, err := b.recoverBrokerState()
		if err != nil {
			_ = b.journal.Close()
			return nil, fmt.Errorf("core: broker recovery: %w", err)
		}
		b.recovered = recovered
	}
	if len(b.keys.Public) == 0 {
		// Fresh start (or no persistence): the broker's signing key is
		// setup, not operation cost.
		keys, err := cfg.Scheme.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("core: broker keygen: %w", err)
		}
		b.keys = keys
		if b.journal != nil {
			// The key must be durable before the first coin is signed:
			// losing it orphans every coin in circulation.
			b.journalKeys()
			if err := b.PersistenceErr(); err != nil {
				_ = b.journal.Close()
				return nil, fmt.Errorf("core: broker key journal: %w", err)
			}
		}
	}
	ep, err := cfg.Network.Listen(cfg.Addr, b.dispatch)
	if err != nil {
		if b.journal != nil {
			_ = b.journal.Close()
		}
		return nil, fmt.Errorf("core: broker listen: %w", err)
	}
	b.ep = ep
	// Adopt the actually-bound address (TCP ":0" binds pick a port).
	b.cfg.Addr = ep.Addr()
	if len(cfg.DHTNodes) > 0 {
		b.dhtc, err = dht.NewClient(ep, cfg.DHTNodes, dht.OneHop)
		if err != nil {
			_ = ep.Close()
			if b.journal != nil {
				_ = b.journal.Close()
			}
			return nil, fmt.Errorf("core: broker dht client: %w", err)
		}
		if cfg.DHTReplication != nil {
			b.dhtc.WithReplication(*cfg.DHTReplication)
		}
	}
	if cfg.Obs != nil {
		b.instr = newInstr(cfg.Obs, "broker")
		registerOpCounts(cfg.Obs, "broker", &b.ops)
		cfg.Obs.Help("whopay_broker_issued_value", "Total coin value issued and in circulation.")
		cfg.Obs.Help("whopay_broker_deposited_value", "Total coin value redeemed.")
		cfg.Obs.GaugeFunc("whopay_broker_issued_value", nil, func() float64 { return float64(b.IssuedValue()) })
		cfg.Obs.GaugeFunc("whopay_broker_deposited_value", nil, func() float64 { return float64(b.DepositedValue()) })
		cfg.Obs.Help("whopay_broker_deposit_batch_occupancy",
			"Deposits per deposit flush, bucketed by batch size (the sum counts deposits flushed).")
		b.depositOccupancy = cfg.Obs.Histogram("whopay_broker_deposit_batch_occupancy", nil, depositOccupancyBounds)
		cfg.Obs.Help("whopay_broker_deposit_batch_flushes", "Deposit flushes performed.")
		b.depositFlushes = cfg.Obs.Counter("whopay_broker_deposit_batch_flushes", nil)
		registerCacheMetrics(cfg.Obs, "broker", func() (int64, int64, int64, int64) {
			s := b.cache.Stats()
			return s.Hits, s.Misses, s.KeyHits, s.KeyMisses
		})
		if b.journal != nil {
			cfg.Obs.RegisterHealth("broker-journal", func() (string, error) {
				if err := b.PersistenceErr(); err != nil {
					return "", err
				}
				return "journaling", nil
			})
		}
	}
	if b.fed != nil {
		// Settlement delivery retries transient failures and follows
		// redirect hints on its own; the outer loop only re-resolves
		// leadership between rounds.
		b.settleCaller = bus.NewRetryCaller(ep, bus.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		})
		if cfg.Obs != nil {
			cfg.Obs.Help("whopay_fed_pending_settlements", "Cross-shard settlements awaiting payout-shard acknowledgement, by shard.")
			cfg.Obs.GaugeFunc("whopay_fed_pending_settlements",
				obs.Labels{"shard": fmt.Sprint(b.fed.Index)},
				func() float64 { return float64(b.PendingSettlements()) })
		}
		go b.settleLoop()
		// Recovery may have re-queued unacked settlements; deliver them.
		b.kickSettle()
	} else {
		close(b.settleDone)
	}
	return b, nil
}

// RecoverBroker starts a broker from the durable state under
// cfg.Persistence.Dir, failing when there is none (NewBroker also recovers
// opportunistically; this entry point is for restarts that must not
// silently mint a fresh broker with a fresh key).
func RecoverBroker(cfg BrokerConfig) (*Broker, error) {
	if cfg.Persistence == nil {
		return nil, errors.New("core: RecoverBroker needs cfg.Persistence")
	}
	b, err := NewBroker(cfg)
	if err != nil {
		return nil, err
	}
	if !b.recovered {
		_ = b.Close()
		return nil, fmt.Errorf("core: no durable broker state under %s", cfg.Persistence.Dir)
	}
	return b, nil
}

// Recovered reports whether this broker replayed durable state at startup.
func (b *Broker) Recovered() bool { return b.recovered }

// Addr returns the broker's bus address (the actually-bound one).
func (b *Broker) Addr() bus.Address { return b.cfg.Addr }

// PublicKey returns the broker's signing key; every entity verifies coins
// and downtime bindings against it.
func (b *Broker) PublicKey() sig.PublicKey { return b.keys.Public.Clone() }

// Close stops the broker and (when persisted) flushes and closes its
// journal.
func (b *Broker) Close() error {
	// Stop the settlement loop first: it calls out through the endpoint.
	if b.fed != nil {
		close(b.settleStop)
		<-b.settleDone
	}
	err := b.ep.Close()
	if b.journal != nil {
		if lerr := b.journal.Close(); err == nil {
			err = lerr
		}
	}
	return err
}

// Ops returns a snapshot of the broker's operation counts (lock-free).
func (b *Broker) Ops() OpCounts { return b.ops.Snapshot() }

// Balance returns the amount credited to a payout reference by deposits
// (under the credit regime, also the remaining purchase budget of an
// identity using itself as payout reference). Read-only: it never stalls
// or materializes request-path state.
func (b *Broker) Balance(payoutRef string) int64 { return b.ledger.Balance(payoutRef) }

// IssuedValue is the total face value of coins minted so far (lock-free).
func (b *Broker) IssuedValue() int64 { return b.issuedValue.Load() }

// DepositedValue is the total face value redeemed so far (lock-free).
func (b *Broker) DepositedValue() int64 { return b.depositedValue.Load() }

// Freeze bars an identity from purchasing (judge-ordered punishment).
func (b *Broker) Freeze(identity string) {
	b.frozen.Set(identity, struct{}{})
	if b.journal != nil {
		b.journal.Commit(frozenMut(identity))
	}
}

// RevokeCredentials adds the given credential serials to the broker's CRL
// and invalidates every cached verification artifact tied to the matching
// one-time public keys. Feed it the return value of Judge.Revoke so a
// revoked member's outstanding credentials stop verifying immediately, even
// when a prior use was memoized.
func (b *Broker) RevokeCredentials(serials []uint64, pubs []sig.PublicKey) {
	b.gsv.Revoke(serials, pubs)
}

// InvalidateCryptoCache drops all memoized verification state. Call it on
// group-key rotation or any event that changes what "valid" means outside
// per-credential revocation.
func (b *Broker) InvalidateCryptoCache() { b.cache.Invalidate() }

// Frozen reports whether identity is frozen (read-lock path only).
func (b *Broker) Frozen(identity string) bool {
	_, frozen := b.frozen.Get(identity)
	return frozen
}

// FraudCases returns recorded fraud cases (read lock on the case log only).
func (b *Broker) FraudCases() []FraudCase {
	b.casesMu.RLock()
	defer b.casesMu.RUnlock()
	return append([]FraudCase(nil), b.cases...)
}

// ServiceLocks reports how many per-coin service locks are live
// (tests/metrics for the eviction policy).
func (b *Broker) ServiceLocks() int { return b.svc.Len() }

func (b *Broker) dispatch(_ bus.Address, msg any) (any, error) {
	// Federation shard gate: foreign keys bounce with a redirect hint
	// before any crypto or store work happens.
	if b.fed != nil {
		if err := b.checkShard(msg); err != nil {
			return nil, err
		}
	}
	// Each case opens a span + latency sample inline (no closure: a
	// wrapper func would allocate even with instrumentation disabled,
	// breaking the byte-identical contract of a nil Obs knob).
	switch m := msg.(type) {
	case PurchaseRequest:
		sp := b.instr.Begin("serve-purchase")
		resp, err := b.handlePurchase(m)
		b.instr.End(sp, err)
		return resp, err
	case BatchPurchaseRequest:
		sp := b.instr.Begin("serve-purchase-batch")
		resp, err := b.handleBatchPurchase(m)
		b.instr.End(sp, err)
		return resp, err
	case TransferRequest:
		sp := b.instr.Begin("serve-downtime-transfer")
		resp, err := b.serviceDowntime(transferReq(&m))
		b.instr.End(sp, err)
		return resp, err
	case RenewRequest:
		sp := b.instr.Begin("serve-downtime-renewal")
		resp, err := b.serviceDowntime(renewReq(&m))
		b.instr.End(sp, err)
		return resp, err
	case DepositRequest:
		sp := b.instr.Begin("serve-deposit")
		r := b.flushDeposits([]DepositRequest{m})[0]
		b.instr.End(sp, r.err)
		return r.resp, r.err
	case BatchDepositRequest:
		sp := b.instr.Begin("serve-batch-deposit")
		resp, err := b.handleBatchDeposit(m)
		b.instr.End(sp, err)
		return resp, err
	case LayeredDepositRequest:
		sp := b.instr.Begin("serve-layered-deposit")
		resp, err := b.handleLayeredDeposit(m)
		b.instr.End(sp, err)
		return resp, err
	case SyncRequest:
		sp := b.instr.Begin("serve-sync")
		resp, err := b.handleSync(m)
		b.instr.End(sp, err)
		return resp, err
	case FraudReport:
		sp := b.instr.Begin("serve-fraud-report")
		resp, err := b.handleFraudReport(m)
		b.instr.End(sp, err)
		return resp, err
	case SettleRequest:
		sp := b.instr.Begin("serve-settle")
		resp, err := b.handleSettle(m)
		b.instr.End(sp, err)
		return resp, err
	default:
		return nil, fmt.Errorf("%w: broker got %T", ErrBadRequest, msg)
	}
}

func (b *Broker) handlePurchase(m PurchaseRequest) (any, error) {
	entry, ok := b.cfg.Directory.Lookup(m.Buyer)
	if !ok {
		return nil, fmt.Errorf("%w: buyer %q", ErrUnknownIdentity, m.Buyer)
	}
	if err := b.suite.Verify(entry.Pub, purchaseMessage(m.Buyer, m.CoinPub, m.Handle, m.Value, m.Anonymous), m.Sig); err != nil {
		return nil, fmt.Errorf("%w: purchase signature: %v", ErrBadRequest, err)
	}
	if m.Value <= 0 {
		return nil, fmt.Errorf("%w: non-positive value", ErrBadRequest)
	}
	if len(m.CoinPub) == 0 {
		return nil, fmt.Errorf("%w: empty coin key", ErrBadRequest)
	}
	if m.Anonymous && len(m.Handle) == 0 {
		return nil, fmt.Errorf("%w: anonymous purchase needs a handle", ErrBadRequest)
	}

	coins := []coin.Coin{{Pub: m.CoinPub.Clone(), Value: m.Value}}
	c := &coins[0]
	if m.Anonymous {
		c.Handle = append([]byte(nil), m.Handle...)
	} else {
		c.Owner = m.Buyer
	}

	// Cheap rejections before paying for the signature.
	if b.Frozen(m.Buyer) {
		return nil, fmt.Errorf("%w: %s", ErrFrozen, m.Buyer)
	}
	if _, exists := b.coins.Get(c.ID()); exists {
		return nil, fmt.Errorf("%w: coin key already registered", ErrBadRequest)
	}
	if b.cfg.InitialCredit > 0 && b.ledger.Balance(m.Buyer) < c.Value {
		return nil, fmt.Errorf("%w: %s", ErrInsufficientFunds, m.Buyer)
	}

	sigBytes, err := b.suite.Sign(b.keys.Private, c.Message())
	if err != nil {
		return nil, fmt.Errorf("core: signing coin: %w", err)
	}
	c.Sig = sigBytes
	if err := b.commitMint(m.Buyer, coins); err != nil {
		return nil, err
	}
	return PurchaseResponse{Coin: *c}, nil
}

// handleBatchPurchase mints several coins under one buyer signature. The
// batch counts as one purchase operation (that is its point: amortizing
// broker round-trips and signature checks).
func (b *Broker) handleBatchPurchase(m BatchPurchaseRequest) (any, error) {
	entry, ok := b.cfg.Directory.Lookup(m.Buyer)
	if !ok {
		return nil, fmt.Errorf("%w: buyer %q", ErrUnknownIdentity, m.Buyer)
	}
	if err := b.suite.Verify(entry.Pub, batchPurchaseMessage(m.Buyer, m.CoinPubs, m.Value), m.Sig); err != nil {
		return nil, fmt.Errorf("%w: batch purchase signature: %v", ErrBadRequest, err)
	}
	if m.Value <= 0 || len(m.CoinPubs) == 0 {
		return nil, fmt.Errorf("%w: empty batch or non-positive value", ErrBadRequest)
	}
	total := m.Value * int64(len(m.CoinPubs))

	if b.Frozen(m.Buyer) {
		return nil, fmt.Errorf("%w: %s", ErrFrozen, m.Buyer)
	}
	seen := make(map[coin.ID]bool, len(m.CoinPubs))
	for _, pub := range m.CoinPubs {
		id := coin.ID(pub)
		if len(pub) == 0 || seen[id] {
			return nil, fmt.Errorf("%w: empty or duplicate coin key in batch", ErrBadRequest)
		}
		seen[id] = true
		if _, exists := b.coins.Get(id); exists {
			return nil, fmt.Errorf("%w: coin key already registered", ErrBadRequest)
		}
	}
	if b.cfg.InitialCredit > 0 && b.ledger.Balance(m.Buyer) < total {
		return nil, fmt.Errorf("%w: %s needs %d", ErrInsufficientFunds, m.Buyer, total)
	}

	coins := make([]coin.Coin, 0, len(m.CoinPubs))
	for _, pub := range m.CoinPubs {
		c := coin.Coin{Owner: m.Buyer, Pub: pub.Clone(), Value: m.Value}
		sigBytes, err := b.suite.Sign(b.keys.Private, c.Message())
		if err != nil {
			return nil, fmt.Errorf("core: signing batch coin: %w", err)
		}
		c.Sig = sigBytes
		coins = append(coins, c)
	}

	if err := b.commitMint(m.Buyer, coins); err != nil {
		return nil, err
	}
	return BatchPurchaseResponse{Coins: coins}, nil
}

// commitMint is the one mint commit both purchase handlers end in, after
// each has verified its own signature and inputs: debit the buyer, then
// register every coin. A duplicate key (the buyer raced itself) rolls back
// the coins registered so far — they are the buyer's alone, the keys were
// fresh — and refunds, so a purchase is all-or-nothing and conservation
// holds without a global lock. The purchase journals as one record and
// counts as one purchase operation however many coins it mints.
func (b *Broker) commitMint(buyer string, coins []coin.Coin) error {
	var total int64
	for i := range coins {
		total += coins[i].Value
	}
	if b.cfg.InitialCredit > 0 {
		if _, ok := b.ledger.TryDebit(buyer, total); !ok {
			return fmt.Errorf("%w: %s", ErrInsufficientFunds, buyer)
		}
	}
	for i := range coins {
		c := &coins[i]
		if !b.coins.Insert(c.ID(), c) {
			for j := 0; j < i; j++ {
				b.coins.Delete(coins[j].ID())
				b.purchasedBy.Delete(coins[j].ID())
			}
			if b.cfg.InitialCredit > 0 {
				b.ledger.Credit(buyer, total)
			}
			return fmt.Errorf("%w: coin key already registered", ErrBadRequest)
		}
		b.purchasedBy.Set(c.ID(), buyer)
	}
	b.journalMint(coins, buyer)
	b.issuedValue.Add(total)
	b.ops.Inc(OpPurchase)
	return nil
}

// currentBinding establishes the authoritative binding for a coin from the
// broker's downtime state and the holder's presented evidence, implementing
// both of the paper's downtime verification flavors: bit-comparison when
// the broker already holds matching state (flavor two), full signature
// verification otherwise (flavor one).
func (b *Broker) currentBinding(c *coin.Coin, presented *coin.Binding) (*coin.Binding, error) {
	if presented == nil {
		return nil, fmt.Errorf("%w: no binding presented", ErrBadRequest)
	}
	stored, _ := b.downtime.Get(c.ID())
	if stored != nil && stored.Equal(presented) {
		// Flavor two: bit-by-bit comparison, no crypto.
		return stored, nil
	}
	// Flavor one: verify the presented binding cryptographically. Expiry
	// is not enforced on evidence: a holder that slept through a renewal
	// period can still prove holdership; renewals exist to bound state,
	// not to confiscate coins.
	if err := presented.VerifyFor(b.suite, c, b.keys.Public, time.Time{}); err != nil {
		return nil, fmt.Errorf("%w: presented binding: %v", ErrStaleBinding, err)
	}
	if stored != nil && presented.Seq <= stored.Seq {
		return nil, fmt.Errorf("%w: presented seq %d, broker has %d", ErrStaleBinding, presented.Seq, stored.Seq)
	}
	return presented, nil
}

// lockCoin serializes servicing of one coin (the validate→deliver→commit
// sequence of downtime operations must not interleave). TryLock so a
// payee that calls back into the broker during delivery cannot deadlock it.
//
// Entries are created on demand and may be evicted at any time (deposit,
// PruneServiceLocks); after acquiring, the lock is revalidated against the
// store so an acquired-but-evicted mutex — which no longer serializes
// against a freshly created one — is never returned.
func (b *Broker) lockCoin(id coin.ID) (unlock func(), err error) {
	for {
		m := b.svc.GetOrInsert(id, func() *sync.Mutex { return &sync.Mutex{} })
		if !m.TryLock() {
			return nil, ErrCoinBusy
		}
		if cur, ok := b.svc.Get(id); ok && cur == m {
			return m.Unlock, nil
		}
		// Evicted between fetch and lock: retry against the live entry.
		m.Unlock()
	}
}

// evictServiceLock drops a coin's service lock. Safe at any time because
// lockCoin revalidates; called when the coin can no longer be serviced
// (deposited) or has long gone quiet (PruneServiceLocks).
func (b *Broker) evictServiceLock(id coin.ID) { b.svc.Delete(id) }

// PruneServiceLocks evicts per-coin service locks no live request needs:
// locks for deposited coins, and locks for coins whose broker-era downtime
// binding expired before now — they are recreated on demand if the coin
// revives (expiry does not confiscate). It returns the number evicted.
// Long-running brokers call this periodically so the lock table tracks the
// working set instead of every coin ever serviced.
func (b *Broker) PruneServiceLocks() int {
	now := b.cfg.Clock().Unix()
	evicted := 0
	for _, id := range b.svc.Keys() {
		if _, spent := b.deposited.Get(id); spent {
			b.evictServiceLock(id)
			evicted++
			continue
		}
		if binding, ok := b.downtime.Get(id); ok && binding.Expiry < now {
			b.evictServiceLock(id)
			evicted++
		}
	}
	return evicted
}

func (b *Broker) lookupActiveCoin(pub sig.PublicKey) (*coin.Coin, error) {
	id := coin.ID(pub)
	c, ok := b.coins.Get(id)
	if !ok {
		return nil, ErrUnknownCoin
	}
	if _, spent := b.deposited.Get(id); spent {
		return nil, ErrAlreadyDeposited
	}
	return c, nil
}

// recordRelinquish adds a broker-era relinquishment proof to the coin's
// audit trail; the caller journals it (proofMut). The inner map is mutated
// under the shard's write lock; readers copy it under View.
func (b *Broker) recordRelinquish(id coin.ID, seq uint64, proof RelinquishProof) {
	b.relinquish.Compute(id, func(proofs map[uint64]RelinquishProof, _ bool) (map[uint64]RelinquishProof, store.Op) {
		if proofs == nil {
			proofs = make(map[uint64]RelinquishProof)
		}
		proofs[seq] = proof
		return proofs, store.OpSet
	})
}

// queueSync marks a coin for the owner's next synchronization.
func (b *Broker) queueSync(owner string, id coin.ID) {
	if owner == "" {
		return
	}
	b.pendingSync.Compute(owner, func(ids []coin.ID, _ bool) ([]coin.ID, store.Op) {
		return append(ids, id), store.OpSet
	})
}

// serviceDowntime services a transfer or renewal during the owner's
// downtime (paper Section 4.2): the owner's rebind decision, signed with the
// broker key against the binding currentBinding establishes. The new
// binding is queued for the owner's next synchronization and published.
func (b *Broker) serviceDowntime(r rebindReq) (any, error) {
	c, err := b.lookupActiveCoin(r.body.CoinPub)
	if err != nil {
		return nil, err
	}
	id := c.ID()
	unlock, err := b.lockCoin(id)
	if err != nil {
		return nil, err
	}
	defer unlock()
	cur, err := b.currentBinding(c, r.presented)
	if err != nil {
		return nil, err
	}
	next, proof, err := rebind(b.suite, b.gsv, b.cfg.GroupPub, b.keys.Private, true, c, cur, r, b.cfg.Clock(), b.cfg.RenewalPeriod)
	if err != nil {
		return nil, err
	}

	// A transfer journals the relinquishment before the new binding leaves
	// the broker: once the payee holds a broker-signed binding, the proof
	// that justified it must survive any crash or snapshot (else the
	// audit-trail walk would read the re-binding as owner fraud — a false
	// punishment). A failed delivery keeps the proof too: the broker cannot
	// tell a payee that never got the binding from one whose reply was
	// lost, and the holder did sign this relinquishment. The binding itself
	// commits only after delivery: an undelivered one must not strand the
	// coin with a holder that never received it. A renewal delivers
	// nothing, so its proof rides its binding's one commit.
	b.recordRelinquish(id, cur.Seq, proof)
	var also []wal.Mutation
	if b.journal != nil {
		if r.renewal {
			also = []wal.Mutation{proofMut(id, cur.Seq, &proof)}
		} else {
			b.journal.Commit(proofMut(id, cur.Seq, &proof))
		}
	}
	if !r.renewal {
		if err := deliver(b.ep.Call, b.suite, b.keys.Private, bus.Address(r.body.PayeeAddr), r.body.Nonce, DeliverRequest{Coin: *c, Binding: *next}); err != nil {
			return undelivered(err)
		}
	}

	owner := b.ownerIdentity(c)
	b.downtime.Set(id, next)
	b.queueSync(owner, id)
	b.journalDowntimeCommit(id, owner, also...)

	publish(b.dhtc, b.suite, b.keys, next)
	if r.renewal {
		b.ops.Inc(OpDowntimeRenewal)
		return RenewResponse{Binding: *next}, nil
	}
	b.ops.Inc(OpDowntimeTransfer)
	return TransferResponse{OK: true}, nil
}

// ownerIdentity resolves the identity to sync for a coin; for anonymous
// coins the broker still knows the purchaser.
func (b *Broker) ownerIdentity(c *coin.Coin) string {
	if c.Owner != "" {
		return c.Owner
	}
	buyer, _ := b.purchasedBy.Get(c.ID())
	return buyer
}

func (b *Broker) handleSync(m SyncRequest) (any, error) {
	entry, ok := b.cfg.Directory.Lookup(m.Identity)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIdentity, m.Identity)
	}
	if err := b.suite.Verify(entry.Pub, syncMessage(m.Identity, m.Nonce), m.Sig); err != nil {
		return nil, fmt.Errorf("%w: sync signature: %v", ErrBadRequest, err)
	}
	ids, hadQueue := b.pendingSync.GetAndDelete(m.Identity)
	var bindings []coin.Binding
	var drained []coin.ID
	seen := make(map[coin.ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, spent := b.deposited.Get(id); spent {
			continue
		}
		// The owner is authoritative again; future downtime operations
		// re-verify from presented evidence.
		if binding, ok := b.downtime.GetAndDelete(id); ok {
			bindings = append(bindings, *binding)
			drained = append(drained, id)
		}
	}
	if hadQueue {
		b.journalSyncDrain(m.Identity, drained)
	}
	b.ops.Inc(OpSync)
	return SyncResponse{Bindings: bindings}, nil
}

// recordCase appends a fraud case to the case log and journals it in one
// record together with also — the decision the case justifies, such as a
// punishment's freeze — so recovery never sees the decision without its
// judge-openable evidence.
func (b *Broker) recordCase(fc FraudCase, also ...wal.Mutation) uint64 {
	b.casesMu.Lock()
	b.caseSeq++
	fc.ID = b.caseSeq
	b.cases = append(b.cases, fc)
	b.casesMu.Unlock()
	if b.journal != nil {
		b.journal.Commit(append(also, wal.Set(tblCase, caseKey(fc.ID), encCase(fc)))...)
	}
	return fc.ID
}

// handleFraudReport adjudicates a holder's double-spend alarm by walking
// the coin's audit trail (the paper's dispute story: owners must be able to
// prove every re-binding was authorized by the relinquishing holder).
func (b *Broker) handleFraudReport(m FraudReport) (any, error) {
	c, ok := b.coins.Get(coin.ID(m.CoinPub))
	if !ok {
		return nil, ErrUnknownCoin
	}
	reportMsg := fraudReportMessage(m.CoinPub, &m.MyBinding, &m.Observed)
	if err := b.gsv.Verify(b.suite, reportMsg, m.GroupSig); err != nil {
		return nil, fmt.Errorf("%w: report group signature: %v", ErrBadRequest, err)
	}
	// Both bindings must be genuine (expiry irrelevant for evidence).
	if err := m.MyBinding.VerifyFor(b.suite, c, b.keys.Public, time.Time{}); err != nil {
		return nil, fmt.Errorf("%w: reporter binding: %v", ErrBadRequest, err)
	}
	if err := m.Observed.VerifyFor(b.suite, c, b.keys.Public, time.Time{}); err != nil {
		return nil, fmt.Errorf("%w: observed binding: %v", ErrBadRequest, err)
	}
	if m.Observed.Seq < m.MyBinding.Seq {
		return nil, fmt.Errorf("%w: observed binding is older than reporter's", ErrBadRequest)
	}
	if m.Observed.Seq == m.MyBinding.Seq && m.MyBinding.Equal(&m.Observed) {
		return nil, fmt.Errorf("%w: bindings do not conflict", ErrBadRequest)
	}

	// Two distinct valid bindings with the same sequence number are
	// definitive owner fraud: no honest signer issues both.
	if m.Observed.Seq == m.MyBinding.Seq {
		return b.punishOwner(c, m, "conflicting bindings at same sequence")
	}

	// Otherwise ask the owner to prove the chain of relinquishments from
	// the reporter's sequence to the observed one.
	owner := b.ownerIdentity(c)
	entry, ok := b.cfg.Directory.Lookup(owner)
	if !ok {
		id := b.recordCase(FraudCase{
			Kind: "owner-unreachable", CoinID: c.ID(),
			Verdict:  "owner identity unresolvable; escalated to judge",
			Bindings: []coin.Binding{m.MyBinding, m.Observed},
		})
		return FraudResponse{CaseID: id, Verdict: "escalated"}, nil
	}
	resp, err := b.ep.Call(entry.Addr, DisputeRequest{CoinPub: m.CoinPub, FromSeq: m.MyBinding.Seq, ToSeq: m.Observed.Seq})
	if err != nil {
		id := b.recordCase(FraudCase{
			Kind: "owner-unreachable", CoinID: c.ID(),
			Verdict:  "owner did not answer dispute: " + err.Error(),
			Bindings: []coin.Binding{m.MyBinding, m.Observed},
		})
		return FraudResponse{CaseID: id, Verdict: "pending"}, nil
	}
	dr, ok := resp.(DisputeResponse)
	if !ok {
		return b.punishOwner(c, m, "owner returned malformed dispute response")
	}
	if err := b.verifyRelinquishChain(c, &m.MyBinding, &m.Observed, dr.Proofs); err != nil {
		return b.punishOwner(c, m, "audit trail does not justify re-binding: "+err.Error())
	}
	id := b.recordCase(FraudCase{
		Kind: "legitimate-chain", CoinID: c.ID(),
		Verdict:  "owner produced a valid relinquishment chain; reporter's binding was stale",
		Bindings: []coin.Binding{m.MyBinding, m.Observed},
	})
	return FraudResponse{CaseID: id, Verdict: "legitimate"}, nil
}

func (b *Broker) punishOwner(c *coin.Coin, m FraudReport, why string) (any, error) {
	owner := b.ownerIdentity(c)
	b.frozen.Set(owner, struct{}{})
	id := b.recordCase(FraudCase{
		Kind: "owner-fraud", CoinID: c.ID(),
		Verdict:  why,
		Punished: owner,
		GroupSigs: [][2]any{
			{fraudReportMessage(m.CoinPub, &m.MyBinding, &m.Observed), m.GroupSig},
		},
		Bindings: []coin.Binding{m.MyBinding, m.Observed},
	}, frozenMut(owner))
	return FraudResponse{CaseID: id, Verdict: "owner-fraud", Punished: owner}, nil
}

// verifyRelinquishChain walks holder-signed proofs from the reporter's
// binding to the observed binding, merging the owner's audit trail with the
// broker's own (downtime-era) entries.
func (b *Broker) verifyRelinquishChain(c *coin.Coin, from, to *coin.Binding, ownerProofs []RelinquishProof) error {
	chain := make(map[uint64]RelinquishProof, len(ownerProofs))
	for _, p := range ownerProofs {
		chain[p.Body.PrevSeq] = p
	}
	b.relinquish.View(c.ID(), func(proofs map[uint64]RelinquishProof, _ bool) {
		for seq, p := range proofs {
			if _, exists := chain[seq]; !exists {
				chain[seq] = p
			}
		}
	})

	holder := sig.PublicKey(from.Holder)
	for seq := from.Seq; seq < to.Seq; seq++ {
		p, ok := chain[seq]
		if !ok {
			return fmt.Errorf("no relinquishment proof for seq %d", seq)
		}
		if !holder.Equal(p.PrevHold) {
			return fmt.Errorf("proof at seq %d cites wrong holder", seq)
		}
		var msg []byte
		var next sig.PublicKey
		if p.Renewal {
			msg = renewMessage(c.Pub, seq)
			next = holder
		} else {
			if p.Body.PrevSeq != seq || !c.Pub.Equal(sig.PublicKey(p.Body.CoinPub)) {
				return fmt.Errorf("proof at seq %d cites wrong coin or seq", seq)
			}
			msg = p.Body.Message()
			next = sig.PublicKey(p.Body.NewHolder)
		}
		if err := b.suite.Verify(holder, msg, p.HolderSig); err != nil {
			return fmt.Errorf("proof at seq %d not signed by holder: %v", seq, err)
		}
		holder = next
	}
	if !holder.Equal(sig.PublicKey(to.Holder)) {
		return errors.New("chain ends at a different holder than observed")
	}
	return nil
}
