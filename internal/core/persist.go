package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"whopay/internal/coin"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Durability layer (DESIGN.md §10). Entities journal every protocol-relevant
// mutation into a write-ahead log before the response is sent; recovery
// replays the newest snapshot plus the segment tail and re-derives the
// redundant state (ledger balances, issued/deposited counters) from the
// journaled ground truth so a torn multi-record operation can never leave
// the books inconsistent.
//
// Two journaling styles coexist, picked per table by its atomicity need:
//
//   - store.Durable decorators journal single-store commits (a deposit's
//     record insert IS the atomic commit point; a freeze is one set).
//   - Handler-level batches journal multi-store commits (mint = coin +
//     buyer; a downtime re-binding = new binding + relinquishment proof +
//     sync queue) as ONE record, so a crash between the stores is
//     impossible by construction — a batch applies whole or not at all.
//
// Record values are encoded with the internal/wire helpers: each record
// type has an appendWire method and a decode function, and every decode
// goes through wire.DecodeExact, so trailing bytes are rejected.

// Journal table names. Short on purpose: they prefix every record.
const (
	tblMeta     = "meta"   // "keys" -> keyPairRec
	tblCoin     = "coin"   // coin.ID -> coin.Coin
	tblBuyer    = "buyer"  // coin.ID -> purchaser identity
	tblDowntime = "down"   // coin.ID -> coin.Binding
	tblSync     = "sync"   // owner identity -> []coin.ID
	tblClaims   = "claim"  // coin.ID -> claimsRec (sorted)
	tblIntent   = "intent" // coin.ID -> intentRec: journaled-only pre-delivery evidence
	tblDeposit  = "dep"    // coin.ID -> depositRec
	tblFrozen   = "frozen" // identity -> (unit)
	tblCase     = "case"   // case ID -> caseRec
	tblOwned    = "owned"  // coin.ID -> ownedRec, peer logs
	tblHeld     = "held"   // coin.ID -> heldRec, peer logs
	tblEpoch    = "epoch"  // DHT node epoch (lives in internal/dht; listed for the format doc)
	tblSettle   = "settle" // coin.ID -> settleRec: outbound cross-shard settlement state
	tblSettled  = "stld"   // coin.ID -> settledRec: inbound settlement dedup (payout shard)

	metaKeysKey = "keys"
)

// persistLog wraps a wal.Log with first-error retention and implements
// store.Journal for the Durable decorators. A journal failure never blocks
// the in-memory protocol (responses must not diverge from the nil-journal
// path); it is surfaced through PersistenceErr so operators and the crash
// suite can treat the entity as dead.
type persistLog struct {
	log *wal.Log

	mu  sync.Mutex
	err error
}

func (p *persistLog) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Err returns the first journaling failure.
func (p *persistLog) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// LogSet implements store.Journal.
func (p *persistLog) LogSet(table string, key, val []byte) error {
	err := p.log.Append(wal.EncodeBatch([]wal.Mutation{wal.Set(table, key, val)}))
	p.fail(err)
	return err
}

// LogDelete implements store.Journal.
func (p *persistLog) LogDelete(table string, key []byte) error {
	err := p.log.Append(wal.EncodeBatch([]wal.Mutation{wal.Delete(table, key)}))
	p.fail(err)
	return err
}

// batch appends one atomic multi-mutation record.
func (p *persistLog) batch(muts ...wal.Mutation) {
	if len(muts) == 0 {
		return
	}
	p.fail(p.log.Append(wal.EncodeBatch(muts)))
}

// keyPairRec journals an entity's long-lived signing keys and the scheme
// they belong to. Losing the broker's key on crash would orphan every
// outstanding coin — nothing could verify or sign again — so it is the
// first record of every fresh log, and recovery refuses keys of another
// scheme rather than signing with bytes it cannot use.
type keyPairRec struct {
	Scheme string
	Keys   sig.KeyPair
}

func (r *keyPairRec) appendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, r.Scheme)
	return appendKeyPair(dst, r.Keys)
}

func decodeKeyPairRec(d *wire.Decoder) (keyPairRec, error) {
	var r keyPairRec
	var err error
	if r.Scheme, err = d.String(); err != nil {
		return r, err
	}
	r.Keys, err = decodeKeyPair(d)
	return r, err
}

func encKeys(scheme sig.Scheme, kp sig.KeyPair) []byte {
	rec := keyPairRec{Scheme: scheme.Name(), Keys: kp}
	return rec.appendWire(nil)
}

func decKeys(b []byte, scheme sig.Scheme) (sig.KeyPair, error) {
	rec, err := wire.DecodeExact(b, decodeKeyPairRec)
	if err != nil {
		return sig.KeyPair{}, err
	}
	if rec.Scheme != scheme.Name() {
		return sig.KeyPair{}, fmt.Errorf("core: journaled keys are for scheme %q, not %q", rec.Scheme, scheme.Name())
	}
	return rec.Keys, nil
}

func appendKeyPair(dst []byte, kp sig.KeyPair) []byte {
	dst = wire.AppendBytes(dst, kp.Public)
	return wire.AppendBytes(dst, kp.Private)
}

func decodeKeyPair(d *wire.Decoder) (sig.KeyPair, error) {
	var kp sig.KeyPair
	var err error
	if kp.Public, err = decodeKey(d); err != nil {
		return kp, err
	}
	priv, err := d.Bytes()
	kp.Private = sig.PrivateKey(priv)
	return kp, err
}

// depositRec is the journaled form of a depositRecord (whose fields are
// unexported on purpose — the journaled form is explicit).
type depositRec struct {
	Binding   coin.Binding
	GroupSig  groupsig.Signature
	PayoutRef string
	WhenUnix  int64 // UnixNano
}

func (r *depositRec) appendWire(dst []byte) []byte {
	dst = r.Binding.AppendWire(dst)
	dst = r.GroupSig.AppendWire(dst)
	dst = wire.AppendString(dst, r.PayoutRef)
	return wire.AppendInt(dst, r.WhenUnix)
}

func decodeDepositRec(d *wire.Decoder) (depositRec, error) {
	var r depositRec
	var err error
	if r.Binding, err = coin.DecodeWireBinding(d); err != nil {
		return r, err
	}
	if r.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
		return r, err
	}
	if r.PayoutRef, err = d.String(); err != nil {
		return r, err
	}
	r.WhenUnix, err = d.Int()
	return r, err
}

func encDepositRecord(d *depositRecord) ([]byte, error) {
	rec := depositRec{
		Binding:   *d.binding,
		GroupSig:  d.groupSig,
		PayoutRef: d.payoutRef,
		WhenUnix:  d.when.UnixNano(),
	}
	return rec.appendWire(nil), nil
}

func decDepositRecord(b []byte) (*depositRecord, error) {
	r, err := wire.DecodeExact(b, decodeDepositRec)
	if err != nil {
		return nil, err
	}
	return &depositRecord{
		binding:   &r.Binding,
		groupSig:  r.GroupSig,
		payoutRef: r.PayoutRef,
		when:      time.Unix(0, r.WhenUnix),
	}, nil
}

// codecDeposit adapts depositRecord for the Durable decorator.
func codecDeposit() store.Codec[*depositRecord] {
	return store.Codec[*depositRecord]{Enc: encDepositRecord, Dec: decDepositRecord}
}

// claimsRec journals a coin's broker-era relinquishment trail. The
// in-memory form is a map; the journaled form is sorted by sequence so
// encoding is deterministic.
type claimsRec struct {
	Seqs   []uint64
	Proofs []RelinquishProof
}

func (r *claimsRec) appendWire(dst []byte) []byte {
	dst = wire.AppendList(dst, r.Seqs, appendSeq)
	return wire.AppendList(dst, r.Proofs, (*RelinquishProof).appendWire)
}

func decodeClaimsRec(d *wire.Decoder) (claimsRec, error) {
	var r claimsRec
	var err error
	if r.Seqs, err = wire.DecodeList(d, (*wire.Decoder).U64); err != nil {
		return r, err
	}
	r.Proofs, err = wire.DecodeList(d, decodeRelinquishProof)
	return r, err
}

func appendSeq(seq *uint64, dst []byte) []byte { return wire.AppendU64(dst, *seq) }

func encClaims(proofs map[uint64]RelinquishProof) []byte {
	rec := claimsRec{Seqs: make([]uint64, 0, len(proofs)), Proofs: make([]RelinquishProof, 0, len(proofs))}
	for seq := range proofs {
		rec.Seqs = append(rec.Seqs, seq)
	}
	sort.Slice(rec.Seqs, func(i, j int) bool { return rec.Seqs[i] < rec.Seqs[j] })
	for _, seq := range rec.Seqs {
		rec.Proofs = append(rec.Proofs, proofs[seq])
	}
	return rec.appendWire(nil)
}

func decClaims(b []byte) (map[uint64]RelinquishProof, error) {
	rec, err := wire.DecodeExact(b, decodeClaimsRec)
	if err != nil {
		return nil, err
	}
	if len(rec.Seqs) != len(rec.Proofs) {
		return nil, errors.New("core: claims record seq/proof length mismatch")
	}
	out := make(map[uint64]RelinquishProof, len(rec.Seqs))
	for i, seq := range rec.Seqs {
		out[seq] = rec.Proofs[i]
	}
	return out, nil
}

// intentRec is the pre-delivery journal of a downtime re-binding: the
// holder's relinquishment proof, written and (policy permitting) synced
// BEFORE the new binding leaves the broker. If the broker dies between
// delivering to the payee and committing, recovery merges the proof into
// the audit trail, so the payee's broker-signed binding — alive in the
// world — can never later read as an unjustified re-binding and trigger a
// false punishment. The binding itself is deliberately NOT adopted into
// downtime state on recovery: an undelivered intent must not strand the
// coin with a holder that never received it (the no-stuck-coins invariant);
// the presented-evidence flavor of currentBinding accepts the delivered
// binding if it does exist.
type intentRec struct {
	Seq   uint64
	Proof RelinquishProof
}

func (r *intentRec) appendWire(dst []byte) []byte {
	dst = wire.AppendU64(dst, r.Seq)
	return r.Proof.appendWire(dst)
}

func decodeIntentRec(d *wire.Decoder) (intentRec, error) {
	var r intentRec
	var err error
	if r.Seq, err = d.U64(); err != nil {
		return r, err
	}
	r.Proof, err = decodeRelinquishProof(d)
	return r, err
}

// caseRec is the journaled form of a FraudCase: the GroupSigs [][2]any
// evidence pairs become parallel typed slices.
type caseRec struct {
	ID       uint64
	Kind     string
	CoinID   coin.ID
	Verdict  string
	Punished string
	SigMsgs  [][]byte
	Sigs     []groupsig.Signature
	Bindings []coin.Binding
}

func (r *caseRec) appendWire(dst []byte) []byte {
	dst = wire.AppendU64(dst, r.ID)
	dst = wire.AppendString(dst, r.Kind)
	dst = wire.AppendString(dst, string(r.CoinID))
	dst = wire.AppendString(dst, r.Verdict)
	dst = wire.AppendString(dst, r.Punished)
	dst = wire.AppendList(dst, r.SigMsgs, func(msg *[]byte, b []byte) []byte { return wire.AppendBytes(b, *msg) })
	dst = wire.AppendList(dst, r.Sigs, (*groupsig.Signature).AppendWire)
	return wire.AppendList(dst, r.Bindings, (*coin.Binding).AppendWire)
}

func decodeCaseRec(d *wire.Decoder) (caseRec, error) {
	var r caseRec
	var err error
	if r.ID, err = d.U64(); err != nil {
		return r, err
	}
	if r.Kind, err = d.String(); err != nil {
		return r, err
	}
	var id string
	if id, err = d.String(); err != nil {
		return r, err
	}
	r.CoinID = coin.ID(id)
	if r.Verdict, err = d.String(); err != nil {
		return r, err
	}
	if r.Punished, err = d.String(); err != nil {
		return r, err
	}
	if r.SigMsgs, err = wire.DecodeList(d, (*wire.Decoder).Bytes); err != nil {
		return r, err
	}
	if r.Sigs, err = wire.DecodeList(d, groupsig.DecodeWireSignature); err != nil {
		return r, err
	}
	r.Bindings, err = wire.DecodeList(d, coin.DecodeWireBinding)
	return r, err
}

func encCase(fc FraudCase) ([]byte, error) {
	rec := caseRec{
		ID: fc.ID, Kind: fc.Kind, CoinID: fc.CoinID,
		Verdict: fc.Verdict, Punished: fc.Punished, Bindings: fc.Bindings,
	}
	for _, pair := range fc.GroupSigs {
		msg, ok1 := pair[0].([]byte)
		gs, ok2 := pair[1].(groupsig.Signature)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: fraud case %d has malformed evidence pair", fc.ID)
		}
		rec.SigMsgs = append(rec.SigMsgs, msg)
		rec.Sigs = append(rec.Sigs, gs)
	}
	return rec.appendWire(nil), nil
}

func decCase(b []byte) (FraudCase, error) {
	rec, err := wire.DecodeExact(b, decodeCaseRec)
	if err != nil {
		return FraudCase{}, err
	}
	if len(rec.SigMsgs) != len(rec.Sigs) {
		return FraudCase{}, errors.New("core: case record evidence length mismatch")
	}
	fc := FraudCase{
		ID: rec.ID, Kind: rec.Kind, CoinID: rec.CoinID,
		Verdict: rec.Verdict, Punished: rec.Punished, Bindings: rec.Bindings,
	}
	for i := range rec.SigMsgs {
		fc.GroupSigs = append(fc.GroupSigs, [2]any{rec.SigMsgs[i], rec.Sigs[i]})
	}
	return fc, nil
}

// Coins and bindings journal in their wire encodings.
func encCoin(c *coin.Coin) []byte { return c.AppendWire(nil) }

func decCoin(b []byte) (*coin.Coin, error) {
	c, err := wire.DecodeExact(b, coin.DecodeWireCoin)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

func encBinding(bnd *coin.Binding) []byte { return bnd.AppendWire(nil) }

func decBinding(b []byte) (*coin.Binding, error) {
	bnd, err := wire.DecodeExact(b, coin.DecodeWireBinding)
	if err != nil {
		return nil, err
	}
	return &bnd, nil
}

// --- broker persistence -------------------------------------------------

// brokerPersist is the broker's durability runtime.
type brokerPersist struct {
	persistLog
}

// journalKeys writes (and force-syncs) the signing keys: they must survive
// any later crash or every coin in circulation dies with the broker.
func (b *Broker) journalKeys() {
	b.persist.batch(wal.Set(tblMeta, []byte(metaKeysKey), encKeys(b.cfg.Scheme, b.keys)))
	b.persist.fail(b.persist.log.Sync())
}

// journalMint journals a purchase commit: every minted coin plus its buyer
// attribution, one atomic batch (a coin without its buyer would break
// anonymous-coin sync routing and the credit-regime ledger derivation).
func (b *Broker) journalMint(coins []*coin.Coin, buyer string) {
	if b.persist == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 2*len(coins))
	for _, c := range coins {
		muts = append(muts,
			wal.Set(tblCoin, []byte(c.ID()), encCoin(c)),
			wal.Set(tblBuyer, []byte(c.ID()), []byte(buyer)),
		)
	}
	b.persist.batch(muts...)
}

// journalIntent journals the pre-delivery half of a downtime re-binding
// (see intentRec).
func (b *Broker) journalIntent(id coin.ID, seq uint64, proof RelinquishProof) {
	if b.persist == nil {
		return
	}
	rec := intentRec{Seq: seq, Proof: proof}
	b.persist.batch(wal.Set(tblIntent, []byte(id), rec.appendWire(nil)))
}

// journalDowntimeCommit journals a committed downtime re-binding or renewal:
// the new authoritative binding, the coin's full relinquishment trail, and
// the owner's full sync queue — one atomic batch, full values throughout, so
// replaying any interleaving of commits converges to the memory state. Call
// it after the in-memory commit, under the coin's service lock.
func (b *Broker) journalDowntimeCommit(id coin.ID, owner string) {
	if b.persist == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 3)
	if binding, ok := b.downtime.Get(id); ok {
		muts = append(muts, wal.Set(tblDowntime, []byte(id), encBinding(binding)))
	}
	b.relinquish.View(id, func(proofs map[uint64]RelinquishProof, ok bool) {
		if ok {
			muts = append(muts, wal.Set(tblClaims, []byte(id), encClaims(proofs)))
		}
	})
	if owner != "" {
		b.pendingSync.View(owner, func(ids []coin.ID, ok bool) {
			if ok {
				muts = append(muts, wal.Set(tblSync, []byte(owner), wire.AppendStrings(nil, ids)))
			}
		})
	}
	b.persist.batch(muts...)
}

// journalSyncDrain journals a completed owner synchronization: the sync
// queue entry and every drained downtime binding disappear in one batch.
func (b *Broker) journalSyncDrain(identity string, drained []coin.ID) {
	if b.persist == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 1+len(drained))
	muts = append(muts, wal.Delete(tblSync, []byte(identity)))
	for _, id := range drained {
		muts = append(muts, wal.Delete(tblDowntime, []byte(id)))
	}
	b.persist.batch(muts...)
}

// journalCase journals one fraud-case append.
func (b *Broker) journalCase(fc FraudCase) {
	if b.persist == nil {
		return
	}
	val, err := encCase(fc)
	if err != nil {
		b.persist.fail(err)
		return
	}
	kb, err := store.Uint64Codec().Enc(fc.ID)
	if err != nil {
		b.persist.fail(err)
		return
	}
	b.persist.batch(wal.Set(tblCase, kb, val))
}

// PersistenceErr returns the first durability failure (journal append,
// snapshot, codec) since the broker started, or nil. A persisted broker
// whose log is failing is acknowledging operations it cannot make durable;
// operators must treat that as a crash.
func (b *Broker) PersistenceErr() error {
	if b.persist == nil {
		return nil
	}
	if err := b.persist.Err(); err != nil {
		return err
	}
	if err := b.deposited.Err(); err != nil {
		return err
	}
	return b.frozen.Err()
}

// maybePersistSnapshot cuts a compaction snapshot when the live log crosses
// the configured threshold. Called at the end of mutating handlers.
func (b *Broker) maybePersistSnapshot() {
	if b.persist != nil && b.persist.log.SnapshotDue() {
		b.persist.fail(b.CompactLog())
	}
}

// CompactLog writes a full-state snapshot and truncates the journal to it.
// Safe to call at any time on a persisted broker; a no-op otherwise.
func (b *Broker) CompactLog() error {
	if b.persist == nil {
		return nil
	}
	return b.persist.log.Snapshot(func(app func([]byte) error) error {
		emit := func(muts ...wal.Mutation) error { return app(wal.EncodeBatch(muts)) }
		if err := emit(wal.Set(tblMeta, []byte(metaKeysKey), encKeys(b.cfg.Scheme, b.keys))); err != nil {
			return err
		}
		var failed error
		b.coins.Range(func(id coin.ID, c *coin.Coin) bool {
			muts := []wal.Mutation{wal.Set(tblCoin, []byte(id), encCoin(c))}
			if buyer, ok := b.purchasedBy.Get(id); ok {
				muts = append(muts, wal.Set(tblBuyer, []byte(id), []byte(buyer)))
			}
			failed = emit(muts...)
			return failed == nil
		})
		if failed != nil {
			return failed
		}
		b.downtime.Range(func(id coin.ID, binding *coin.Binding) bool {
			failed = emit(wal.Set(tblDowntime, []byte(id), encBinding(binding)))
			return failed == nil
		})
		if failed != nil {
			return failed
		}
		b.pendingSync.Range(func(owner string, ids []coin.ID) bool {
			failed = emit(wal.Set(tblSync, []byte(owner), wire.AppendStrings(nil, ids)))
			return failed == nil
		})
		if failed != nil {
			return failed
		}
		// Keys-then-View (not Range): encClaims must not run with the
		// shard lock held by an enclosing Range while the View re-locks.
		for _, id := range b.relinquish.Keys() {
			var val []byte
			b.relinquish.View(id, func(proofs map[uint64]RelinquishProof, ok bool) {
				if ok {
					val = encClaims(proofs)
				}
			})
			if val != nil {
				if err := emit(wal.Set(tblClaims, []byte(id), val)); err != nil {
					return err
				}
			}
		}
		if err := b.deposited.EmitAll(func(key, val []byte) error {
			return emit(wal.Set(tblDeposit, key, val))
		}); err != nil {
			return err
		}
		if err := b.frozen.EmitAll(func(key, val []byte) error {
			return emit(wal.Set(tblFrozen, key, val))
		}); err != nil {
			return err
		}
		if err := b.settled.EmitAll(func(key, val []byte) error {
			return emit(wal.Set(tblSettled, key, val))
		}); err != nil {
			return err
		}
		b.settleMu.Lock()
		settleSnap := make(map[coin.ID]settleRec, len(b.settleState))
		for id, rec := range b.settleState {
			settleSnap[id] = rec
		}
		b.settleMu.Unlock()
		for id, rec := range settleSnap {
			if err := emit(wal.Set(tblSettle, []byte(id), rec.appendWire(nil))); err != nil {
				return err
			}
		}
		for _, fc := range b.FraudCases() {
			val, err := encCase(fc)
			if err != nil {
				return err
			}
			kb, err := store.Uint64Codec().Enc(fc.ID)
			if err != nil {
				return err
			}
			if err := emit(wal.Set(tblCase, kb, val)); err != nil {
				return err
			}
		}
		return nil
	})
}

// recoverBrokerState replays the journal into the broker's stores and
// re-derives the redundant state. It returns whether any durable state was
// found. Must run before the broker starts serving.
func (b *Broker) recoverBrokerState() (bool, error) {
	found := false
	intents := map[coin.ID]intentRec{}
	settles := map[coin.ID]settleRec{}
	err := b.persist.log.Replay(func(payload []byte) error {
		muts, err := wal.DecodeBatch(payload)
		if err != nil {
			return err
		}
		found = found || len(muts) > 0
		for _, m := range muts {
			if err := b.applyRecovered(m, intents, settles); err != nil {
				return fmt.Errorf("core: replaying %s record: %w", m.Table, err)
			}
		}
		return nil
	})
	if err != nil {
		return found, err
	}
	if !found {
		return false, nil
	}

	// Merge journaled-only intents into the audit trail: a proof for a
	// sequence the committed trail already covers is superseded.
	for id, intent := range intents {
		seq, proof := intent.Seq, intent.Proof
		b.relinquish.Compute(id, func(proofs map[uint64]RelinquishProof, _ bool) (map[uint64]RelinquishProof, store.Op) {
			if proofs == nil {
				proofs = make(map[uint64]RelinquishProof)
			}
			if _, committed := proofs[seq]; !committed {
				proofs[seq] = proof
			}
			return proofs, store.OpSet
		})
	}

	// Re-derive: a deposited coin is out of downtime service, the ledger
	// is a pure function of mints and deposits, and the counters are sums.
	// Deriving instead of journaling these makes every torn multi-step
	// operation self-healing. Under federation the ledger only sees
	// locally-homed payout references; remote ones went (or still must
	// go) through the settlement path, whose state re-derives here too:
	// a remote-ref deposit without an acked settlement record — torn
	// before the intent was journaled, or mid-resend — re-queues, and the
	// payout shard's dedup table absorbs any replay.
	var issued, depositedTotal int64
	b.coins.Range(func(id coin.ID, c *coin.Coin) bool {
		issued += c.Value
		if b.cfg.InitialCredit > 0 {
			if buyer := b.ownerIdentity(c); buyer != "" {
				b.ledger.Credit(buyer, -c.Value)
			}
		}
		return true
	})
	b.deposited.Sharded.Range(func(id coin.ID, rec *depositRecord) bool {
		if c, ok := b.coins.Get(id); ok {
			depositedTotal += c.Value
			if b.localKey(rec.payoutRef) {
				b.ledger.Credit(rec.payoutRef, c.Value)
			} else if s, journaled := settles[id]; !journaled || !s.Done {
				settles[id] = settleRec{Ref: rec.payoutRef, Amount: c.Value}
			}
		}
		b.downtime.Delete(id)
		return true
	})
	b.settleMu.Lock()
	for id, rec := range settles {
		b.settleState[id] = rec
	}
	b.settleMu.Unlock()
	// Inbound settlements already applied replay their credits (the
	// durable dedup insert was the commit point).
	b.settled.Sharded.Range(func(_ coin.ID, rec *settledRec) bool {
		b.ledger.Credit(rec.Ref, rec.Amount)
		return true
	})
	b.issuedValue.Store(issued)
	b.depositedValue.Store(depositedTotal)

	b.casesMu.Lock()
	sort.Slice(b.cases, func(i, j int) bool { return b.cases[i].ID < b.cases[j].ID })
	for _, fc := range b.cases {
		if fc.ID > b.caseSeq {
			b.caseSeq = fc.ID
		}
	}
	b.casesMu.Unlock()
	return true, nil
}

// applyRecovered applies one replayed mutation (journaling suppressed:
// replay goes straight to the embedded stores).
func (b *Broker) applyRecovered(m wal.Mutation, intents map[coin.ID]intentRec, settles map[coin.ID]settleRec) error {
	id := coin.ID(m.Key)
	switch m.Table {
	case tblMeta:
		if string(m.Key) != metaKeysKey || m.Op != wal.OpSet {
			return fmt.Errorf("core: unknown meta record %q", m.Key)
		}
		keys, err := decKeys(m.Val, b.cfg.Scheme)
		if err != nil {
			return err
		}
		b.keys = keys
	case tblCoin:
		c, err := decCoin(m.Val)
		if err != nil {
			return err
		}
		b.coins.Set(id, c)
	case tblBuyer:
		b.purchasedBy.Set(id, string(m.Val))
	case tblDowntime:
		if m.Op == wal.OpDelete {
			b.downtime.Delete(id)
			return nil
		}
		binding, err := decBinding(m.Val)
		if err != nil {
			return err
		}
		b.downtime.Set(id, binding)
	case tblSync:
		if m.Op == wal.OpDelete {
			b.pendingSync.Delete(string(m.Key))
			return nil
		}
		ids, err := wire.DecodeExact(m.Val, wire.DecodeStrings[coin.ID])
		if err != nil {
			return err
		}
		b.pendingSync.Set(string(m.Key), ids)
	case tblClaims:
		proofs, err := decClaims(m.Val)
		if err != nil {
			return err
		}
		b.relinquish.Set(id, proofs)
	case tblIntent:
		rec, err := wire.DecodeExact(m.Val, decodeIntentRec)
		if err != nil {
			return err
		}
		intents[id] = rec
	case tblDeposit:
		if m.Op == wal.OpDelete {
			return errors.New("core: deposit records are never deleted")
		}
		return b.deposited.ApplySet(m.Key, m.Val)
	case tblFrozen:
		if m.Op == wal.OpDelete {
			return b.frozen.ApplyDelete(m.Key)
		}
		return b.frozen.ApplySet(m.Key, m.Val)
	case tblSettle:
		rec, err := wire.DecodeExact(m.Val, decodeSettleRec)
		if err != nil {
			return err
		}
		settles[id] = rec
	case tblSettled:
		if m.Op == wal.OpDelete {
			return errors.New("core: settlement dedup records are never deleted")
		}
		return b.settled.ApplySet(m.Key, m.Val)
	case tblCase:
		fc, err := decCase(m.Val)
		if err != nil {
			return err
		}
		b.casesMu.Lock()
		b.cases = append(b.cases, fc)
		b.casesMu.Unlock()
	default:
		return fmt.Errorf("core: broker journal has unknown table %q", m.Table)
	}
	return nil
}
