package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Broker federation (DESIGN.md §13). The coin-ID space is partitioned across
// N broker shards by the same SHA-256 hashing idiom the DHT uses for binding
// keys; each shard is a full Broker serving only the coins (and payout
// references) that hash to it. Clients route by coin ID, a shard that
// receives a foreign key rejects with ErrWrongShard (carrying a redirect
// hint), and a replica that is not its shard's current leader rejects with
// ErrNotLeader — both classified retryable-with-redirect at the bus layer,
// so a plain RetryCaller converges on the right endpoint.
//
// Deposits whose payout reference homes on another shard settle through a
// two-phase path: the deposit shard journals a settlement intent in its WAL,
// then pushes a SettleRequest to the payout shard, which journals the credit
// into a durable dedup table before applying it. A crash anywhere in between
// recovers to exactly-once — unacked intents are resent, and the payout
// shard's dedup table absorbs replays.

// ShardOfKey maps a routing key — raw coin-ID bytes or a payout reference —
// to its home shard among n. The SHA-256 prefix idiom matches dht.KeyFor, so
// the distribution properties are the ones the DHT already relies on.
func ShardOfKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := sha256.Sum256([]byte(key))
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(n))
}

// FederationConfig makes a broker one shard of a federated trust root. The
// broker then serves only keys that home on its shard, rejects foreign keys
// with ErrWrongShard (plus a leader hint when LeaderAddr knows one), and
// settles cross-shard deposit credits through the two-phase settlement path.
type FederationConfig struct {
	// Index is this shard's position in [0, Shards).
	Index int
	// Shards is the shard count of the federation.
	Shards int
	// LeaderAddr resolves the current leader of a shard — redirect hints
	// and the settlement path use it. It may be nil (no hints, settlement
	// retries until a resolver appears) and may return false while a
	// failover is in progress.
	LeaderAddr func(shard int) (bus.Address, bool)
	// ShardPub resolves a shard's broker signing key so settlement
	// requests can be authenticated. Nil disables verification (trusted
	// single-process deployments and tests).
	ShardPub func(shard int) (sig.PublicKey, bool)
	// SettleRetry is the resend cadence for unacked settlements (default
	// 50ms; tests and the load harness shrink or stretch it).
	SettleRetry time.Duration
}

// SettleRequest pushes one cross-shard deposit credit from the shard that
// redeemed the coin to the shard that owns the payout reference. CoinID is
// the redeemed coin (the exactly-once key), Sig is by the sending shard's
// broker key over settleMessage.
type SettleRequest struct {
	CoinID    []byte
	PayoutRef string
	Amount    int64
	FromShard int
	Sig       []byte
}

// SettleResponse acknowledges a settlement (idempotent: replays of an
// already-applied settlement ack without crediting again).
type SettleResponse struct{}

func settleMessage(coinID []byte, payoutRef string, amount int64, fromShard int) []byte {
	out := []byte("whopay/msg/settle/1")
	out = appendBytes(out, coinID)
	out = appendBytes(out, []byte(payoutRef))
	out = binary.BigEndian.AppendUint64(out, uint64(amount))
	out = binary.BigEndian.AppendUint64(out, uint64(fromShard))
	return out
}

// settleRec is the deposit shard's journaled settlement state for one
// cross-shard coin: the intent (Done false, written before the first send)
// and the acknowledgement (Done true).
type settleRec struct {
	Ref    string
	Amount int64
	Done   bool
}

func (r *settleRec) appendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, r.Ref)
	dst = wire.AppendInt(dst, r.Amount)
	return wire.AppendBool(dst, r.Done)
}

func decodeSettleRec(d *wire.Decoder) (settleRec, error) {
	var r settleRec
	var err error
	if r.Ref, err = d.String(); err != nil {
		return r, err
	}
	if r.Amount, err = d.Int(); err != nil {
		return r, err
	}
	r.Done, err = d.Bool()
	return r, err
}

// settledRec is the payout shard's durable dedup record for one applied
// settlement.
type settledRec struct {
	Ref    string
	Amount int64
}

func (r *settledRec) appendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, r.Ref)
	return wire.AppendInt(dst, r.Amount)
}

func decodeSettledRec(d *wire.Decoder) (settledRec, error) {
	var r settledRec
	var err error
	if r.Ref, err = d.String(); err != nil {
		return r, err
	}
	r.Amount, err = d.Int()
	return r, err
}

// defaultSettleRetry is the resend cadence for unacked settlements.
const defaultSettleRetry = 50 * time.Millisecond

// localKey reports whether a routing key homes on this broker's shard
// (always true for an unfederated broker).
func (b *Broker) localKey(key string) bool {
	return b.fed == nil || ShardOfKey(key, b.fed.Shards) == b.fed.Index
}

// wrongShardErr builds the ErrWrongShard rejection for a foreign key,
// attaching the owning shard's leader address as a redirect hint when known.
func (b *Broker) wrongShardErr(key string) error {
	home := ShardOfKey(key, b.fed.Shards)
	err := fmt.Errorf("%w: key homes on shard %d, this is shard %d", ErrWrongShard, home, b.fed.Index)
	if b.fed.LeaderAddr != nil {
		if addr, ok := b.fed.LeaderAddr(home); ok {
			err = bus.WithRedirect(err, addr)
		}
	}
	return err
}

// checkShard gates one dispatched message by its routing key. Sync requests
// pass everywhere (owners fan out across shards); everything else names a
// coin (or, for settlements, a payout reference) with exactly one home.
func (b *Broker) checkShard(msg any) error {
	switch m := msg.(type) {
	case PurchaseRequest:
		if !b.localKey(string(m.CoinPub)) {
			return b.wrongShardErr(string(m.CoinPub))
		}
	case BatchPurchaseRequest:
		for _, pub := range m.CoinPubs {
			if !b.localKey(string(pub)) {
				return b.wrongShardErr(string(pub))
			}
		}
	case TransferRequest:
		if !b.localKey(string(m.Body.CoinPub)) {
			return b.wrongShardErr(string(m.Body.CoinPub))
		}
	case RenewRequest:
		if !b.localKey(string(m.CoinPub)) {
			return b.wrongShardErr(string(m.CoinPub))
		}
	case DepositRequest:
		if !b.localKey(string(m.CoinPub)) {
			return b.wrongShardErr(string(m.CoinPub))
		}
	case BatchDepositRequest:
		for i := range m.Deposits {
			if !b.localKey(string(m.Deposits[i].CoinPub)) {
				return b.wrongShardErr(string(m.Deposits[i].CoinPub))
			}
		}
	case LayeredDepositRequest:
		if !b.localKey(string(m.LC.Base.ID())) {
			return b.wrongShardErr(string(m.LC.Base.ID()))
		}
	case FraudReport:
		if !b.localKey(string(m.CoinPub)) {
			return b.wrongShardErr(string(m.CoinPub))
		}
	case SettleRequest:
		if !b.localKey(m.PayoutRef) {
			return b.wrongShardErr(m.PayoutRef)
		}
	}
	return nil
}

// creditPayout applies a deposit's credit to its payout reference: directly
// into the ledger when the reference homes here, through the two-phase
// settlement path when it homes on another shard. id is the redeemed coin —
// the settlement's exactly-once key.
func (b *Broker) creditPayout(id coin.ID, payoutRef string, amount int64) {
	if b.localKey(payoutRef) {
		b.ledger.Credit(payoutRef, amount)
		return
	}
	b.journalSettle(id, settleRec{Ref: payoutRef, Amount: amount})
	b.settleMu.Lock()
	b.settleState[id] = settleRec{Ref: payoutRef, Amount: amount}
	b.settleMu.Unlock()
	b.kickSettle()
}

// journalSettle journals one settlement-state transition (intent or ack).
func (b *Broker) journalSettle(id coin.ID, rec settleRec) {
	if b.journal == nil {
		return
	}
	b.journal.Commit(wal.Set(tblSettle, []byte(id), rec.appendWire(nil)))
}

// kickSettle nudges the settlement loop without blocking.
func (b *Broker) kickSettle() {
	select {
	case b.settleKick <- struct{}{}:
	default:
	}
}

// PendingSettlements counts cross-shard deposit credits not yet acknowledged
// by their payout shard. The load harness drains on it before auditing.
func (b *Broker) PendingSettlements() int {
	b.settleMu.Lock()
	defer b.settleMu.Unlock()
	n := 0
	for _, rec := range b.settleState {
		if !rec.Done {
			n++
		}
	}
	return n
}

// settleLoop resends unacked settlements until the payout shard accepts
// them. One goroutine per federated broker; exits on Close.
func (b *Broker) settleLoop() {
	defer close(b.settleDone)
	retry := b.fed.SettleRetry
	if retry <= 0 {
		retry = defaultSettleRetry
	}
	tick := time.NewTicker(retry)
	defer tick.Stop()
	for {
		select {
		case <-b.settleStop:
			return
		case <-b.settleKick:
		case <-tick.C:
		}
		b.drainSettlements()
	}
}

// drainSettlements attempts one delivery round over the pending set.
func (b *Broker) drainSettlements() {
	b.settleMu.Lock()
	pending := make(map[coin.ID]settleRec)
	for id, rec := range b.settleState {
		if !rec.Done {
			pending[id] = rec
		}
	}
	b.settleMu.Unlock()
	for id, rec := range pending {
		select {
		case <-b.settleStop:
			return
		default:
		}
		if b.trySettle(id, rec) {
			rec.Done = true
			b.journalSettle(id, rec)
			b.settleMu.Lock()
			b.settleState[id] = rec
			b.settleMu.Unlock()
		}
	}
}

// trySettle pushes one settlement to the payout shard's leader. False means
// "retry later" — the leader is unknown, unreachable, or mid-failover.
func (b *Broker) trySettle(id coin.ID, rec settleRec) bool {
	if b.fed.LeaderAddr == nil {
		return false
	}
	home := ShardOfKey(rec.Ref, b.fed.Shards)
	addr, ok := b.fed.LeaderAddr(home)
	if !ok {
		return false
	}
	req := SettleRequest{
		CoinID:    []byte(id),
		PayoutRef: rec.Ref,
		Amount:    rec.Amount,
		FromShard: b.fed.Index,
	}
	sigBytes, err := b.suite.Sign(b.keys.Private, settleMessage(req.CoinID, req.PayoutRef, req.Amount, req.FromShard))
	if err != nil {
		return false
	}
	req.Sig = sigBytes
	resp, err := b.settleCaller.Call(addr, req)
	if err != nil {
		return false
	}
	_, ok = resp.(SettleResponse)
	return ok
}

// handleSettle applies one incoming cross-shard settlement exactly once: the
// durable dedup insert is the commit point, recovery replays the credit from
// it, and a replay of an applied settlement acks without crediting again.
// The insert journals under its shard lock, so a concurrent replay of the
// same settlement cannot ack before the first one is durable: that ack lets
// the sender mark the credit delivered.
func (b *Broker) handleSettle(m SettleRequest) (any, error) {
	if m.Amount <= 0 || m.PayoutRef == "" || len(m.CoinID) == 0 {
		return nil, fmt.Errorf("%w: malformed settlement", ErrBadRequest)
	}
	if b.fed != nil && b.fed.ShardPub != nil {
		pub, ok := b.fed.ShardPub(m.FromShard)
		if !ok {
			return nil, fmt.Errorf("%w: settlement from unknown shard %d", ErrBadRequest, m.FromShard)
		}
		if err := b.suite.Verify(pub, settleMessage(m.CoinID, m.PayoutRef, m.Amount, m.FromShard), m.Sig); err != nil {
			return nil, fmt.Errorf("%w: settlement signature: %v", ErrBadRequest, err)
		}
	}
	id := coin.ID(m.CoinID)
	inserted := false
	b.settled.Compute(id, func(cur *settledRec, exists bool) (*settledRec, store.Op) {
		if exists {
			return cur, store.OpKeep
		}
		inserted = true
		rec := &settledRec{Ref: m.PayoutRef, Amount: m.Amount}
		if b.journal != nil {
			b.journal.Commit(wal.Set(tblSettled, []byte(id), rec.appendWire(nil)))
		}
		return rec, store.OpSet
	})
	if !inserted {
		return SettleResponse{}, nil
	}
	b.ledger.Credit(m.PayoutRef, m.Amount)
	return SettleResponse{}, nil
}

// --- peer-side routing ---------------------------------------------------

// ShardRouter resolves a federated trust root for a peer: which shard owns a
// key, who currently leads it, and which broker key that shard signs with.
// Implementations must be safe for concurrent use and should reflect
// failovers promptly (internal/federation.Cluster.Router is the in-process
// one).
type ShardRouter interface {
	// NumShards is the federation's shard count.
	NumShards() int
	// Leader returns the current leader address of a shard, false while a
	// failover is still electing one.
	Leader(shard int) (bus.Address, bool)
	// BrokerPub returns the shard's broker signing key (stable across
	// failovers — promotion recovers the journaled key).
	BrokerPub(shard int) sig.PublicKey
}

// shardOf maps a routing key to its shard under the peer's router.
func (p *Peer) shardOf(key string) int {
	if p.cfg.Router == nil {
		return 0
	}
	return ShardOfKey(key, p.cfg.Router.NumShards())
}

// brokerPubFor resolves the broker signing key that vouches for a coin:
// the owning shard's key under federation, the configured one otherwise.
func (p *Peer) brokerPubFor(key string) sig.PublicKey {
	if p.cfg.Router == nil {
		return p.cfg.BrokerPub
	}
	if pub := p.cfg.Router.BrokerPub(p.shardOf(key)); len(pub) > 0 {
		return pub
	}
	return p.cfg.BrokerPub
}

// brokerCallRounds bounds how many resolve-and-call rounds a federated
// broker call makes. Each round re-resolves the leader, and the inner retry
// layer already backs off within a round, so a handful of rounds spans a
// failover window.
const brokerCallRounds = 3

// callBroker routes one broker-bound call by its key. Under federation the
// call goes to the owning shard's leader; redirect hints and transient
// failures are retried by the inner caller, and a round that still fails
// re-resolves leadership (it may have moved mid-failover) before trying
// again.
func (p *Peer) callBroker(key string, msg any) (any, error) {
	return p.callShard(p.shardOf(key), msg)
}

// callShard routes one broker-bound call to a specific shard's leader, with
// the same resolve-and-retry rounds as callBroker. The configured BrokerAddr
// is the fallback while a failover has no leader yet.
func (p *Peer) callShard(shard int, msg any) (any, error) {
	if p.cfg.Router == nil {
		return p.call(p.cfg.BrokerAddr, msg)
	}
	var lastErr error
	for round := 0; round < brokerCallRounds; round++ {
		addr := p.cfg.BrokerAddr
		if a, ok := p.cfg.Router.Leader(shard); ok {
			addr = a
		}
		resp, err := p.call(addr, msg)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !bus.Transient(err) && !bus.Redirectable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}
