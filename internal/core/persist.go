package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"whopay/internal/coin"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Durability layer (DESIGN.md §10). Entities journal every protocol-relevant
// decision into a write-ahead log before the response is sent; recovery
// replays the newest snapshot plus the segment tail and re-derives the
// redundant state (ledger balances, issued/deposited counters) from the
// journaled ground truth so a torn multi-record operation can never leave
// the books inconsistent.
//
// There is one journaling style: a handler applies its decision to the
// in-memory stores and then journals every mutation it made as ONE
// wal.Log.Commit — mint = coins + buyers, a punishment = freeze + case, a
// downtime renewal = new binding + relinquishment proof + sync queue — so a
// crash between two stores is impossible by construction: a record replays
// whole or not at all. A relinquishment proof is one record of its own
// (proofMut, proofMuts: the only builders of its format), written by the
// commit that puts it into memory, so journaling a re-binding costs the
// same at a coin's first transfer as at its thousandth. A journal failure
// never blocks the in-memory protocol (responses must not diverge from the
// unpersisted path); the log latches its first failure, and PersistenceErr
// reads it so operators and the crash suite can treat the entity as dead.
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
	tblProof    = "proof"  // proofKey(coin.ID, seq) -> RelinquishProof, broker and peer logs
	tblDeposit  = "dep"    // coin.ID -> depositRec
	tblFrozen   = "frozen" // identity -> (unit)
	tblCase     = "case"   // case ID -> caseRec
	tblOwned    = "owned"  // coin.ID -> ownedRec, peer logs
	tblHeld     = "held"   // coin.ID -> heldRec, peer logs
	tblSettle   = "settle" // coin.ID -> settleRec: outbound cross-shard settlement state
	tblSettled  = "stld"   // coin.ID -> settledRec: inbound settlement dedup (payout shard)

	metaKeysKey = "keys"
)

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

func encDepositRecord(d *depositRecord) []byte {
	rec := depositRec{
		Binding:   *d.binding,
		GroupSig:  d.groupSig,
		PayoutRef: d.payoutRef,
		WhenUnix:  d.when.UnixNano(),
	}
	return rec.appendWire(nil)
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

// proofKey is a relinquishment proof's journal key: the coin ID, then the
// sequence the proof relinquished, big-endian, so a coin's proofs sort by
// sequence.
func proofKey(id coin.ID, seq uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte(id), seq)
}

// splitProofKey is proofKey's inverse.
func splitProofKey(key []byte) (coin.ID, uint64, error) {
	n := len(key) - 8
	if n < 0 {
		return "", 0, fmt.Errorf("core: proof key of %d bytes has no sequence", len(key))
	}
	return coin.ID(key[:n]), binary.BigEndian.Uint64(key[n:]), nil
}

// proofMut is the journal record of one relinquishment proof.
func proofMut(id coin.ID, seq uint64, proof *RelinquishProof) wal.Mutation {
	return wal.Set(tblProof, proofKey(id, seq), proof.appendWire(nil))
}

// proofMuts is the journal record of one newly recorded relinquishment
// proof, then the delete of each proof recording it evicted.
func proofMuts(id coin.ID, seq uint64, proof *RelinquishProof, evicted ...uint64) []wal.Mutation {
	muts := []wal.Mutation{proofMut(id, seq, proof)}
	for _, s := range evicted {
		muts = append(muts, wal.Delete(tblProof, proofKey(id, s)))
	}
	return muts
}

// decProof decodes a proof record's value.
func decProof(b []byte) (RelinquishProof, error) {
	return wire.DecodeExact(b, decodeRelinquishProof)
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

// encCase journals a fraud case. Every case is built in this package with
// (message bytes, groupsig.Signature) evidence pairs, so a pair of any other
// shape is a programming error, not an input to handle.
func encCase(fc FraudCase) []byte {
	rec := caseRec{
		ID: fc.ID, Kind: fc.Kind, CoinID: fc.CoinID,
		Verdict: fc.Verdict, Punished: fc.Punished, Bindings: fc.Bindings,
	}
	for _, pair := range fc.GroupSigs {
		msg, ok1 := pair[0].([]byte)
		gs, ok2 := pair[1].(groupsig.Signature)
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("core: fraud case %d has malformed evidence pair", fc.ID))
		}
		rec.SigMsgs = append(rec.SigMsgs, msg)
		rec.Sigs = append(rec.Sigs, gs)
	}
	return rec.appendWire(nil)
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

// journalKeys writes (and force-syncs) the signing keys: they must survive
// any later crash or every coin in circulation dies with the broker.
func (b *Broker) journalKeys() {
	b.journal.Commit(wal.Set(tblMeta, []byte(metaKeysKey), encKeys(b.cfg.Scheme, b.keys)))
	b.journal.Sync()
}

// journalMint journals a purchase commit: every minted coin plus its buyer
// attribution, one atomic batch (a coin without its buyer would break
// anonymous-coin sync routing and the credit-regime ledger derivation).
func (b *Broker) journalMint(coins []coin.Coin, buyer string) {
	if b.journal == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 2*len(coins))
	for i := range coins {
		id := []byte(coins[i].ID())
		muts = append(muts,
			wal.Set(tblCoin, id, encCoin(&coins[i])),
			wal.Set(tblBuyer, id, []byte(buyer)),
		)
	}
	b.journal.Commit(muts...)
}

// journalDowntimeCommit journals a committed downtime re-binding or renewal:
// the new authoritative binding and the owner's full sync queue, plus the
// mutations in also (a renewal's proof), as one atomic batch. Full values
// throughout, so replaying any interleaving of commits converges to the
// memory state. Call it after the in-memory commit, under the coin's
// service lock.
func (b *Broker) journalDowntimeCommit(id coin.ID, owner string, also ...wal.Mutation) {
	if b.journal == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 2+len(also))
	if binding, ok := b.downtime.Get(id); ok {
		muts = append(muts, wal.Set(tblDowntime, []byte(id), encBinding(binding)))
	}
	if owner != "" {
		b.pendingSync.View(owner, func(ids []coin.ID, ok bool) {
			if ok {
				muts = append(muts, wal.Set(tblSync, []byte(owner), wire.AppendStrings(nil, ids)))
			}
		})
	}
	b.journal.Commit(append(muts, also...)...)
}

// journalSyncDrain journals a completed owner synchronization: the sync
// queue entry and every drained downtime binding disappear in one batch.
func (b *Broker) journalSyncDrain(identity string, drained []coin.ID) {
	if b.journal == nil {
		return
	}
	muts := make([]wal.Mutation, 0, 1+len(drained))
	muts = append(muts, wal.Delete(tblSync, []byte(identity)))
	for _, id := range drained {
		muts = append(muts, wal.Delete(tblDowntime, []byte(id)))
	}
	b.journal.Commit(muts...)
}

// caseKey is a fraud case's journal key: its ID, big-endian, so the case
// table sorts like the case log.
func caseKey(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }

// frozenMut is the journal mutation of one freeze (a membership entry: the
// value is empty).
func frozenMut(identity string) wal.Mutation { return wal.Set(tblFrozen, []byte(identity), nil) }

// PersistenceErr returns the first durability failure (journal append,
// sync, snapshot) since the broker started, or nil. A persisted broker
// whose log is failing is acknowledging operations it cannot make durable;
// operators must treat that as a crash.
func (b *Broker) PersistenceErr() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Err()
}

// recoverBrokerState replays the journal into the broker's stores and
// re-derives the redundant state. It returns whether any durable state was
// found. Must run before the broker starts serving.
func (b *Broker) recoverBrokerState() (bool, error) {
	found := false
	settles := map[coin.ID]settleRec{}
	err := b.journal.Replay(func(payload []byte) error {
		muts, err := wal.DecodeBatch(payload)
		if err != nil {
			return err
		}
		found = found || len(muts) > 0
		for _, m := range muts {
			if err := b.applyRecovered(m, settles); err != nil {
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
	b.deposited.Range(func(id coin.ID, rec *depositRecord) bool {
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
	b.settled.Range(func(_ coin.ID, rec *settledRec) bool {
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

// applyRecovered applies one replayed mutation to the broker's stores.
func (b *Broker) applyRecovered(m wal.Mutation, settles map[coin.ID]settleRec) error {
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
	case tblProof:
		if m.Op == wal.OpDelete {
			return errors.New("core: broker proof records are never deleted")
		}
		id, seq, err := splitProofKey(m.Key)
		if err != nil {
			return err
		}
		proof, err := decProof(m.Val)
		if err != nil {
			return err
		}
		b.recordRelinquish(id, seq, proof)
	case tblDeposit:
		if m.Op == wal.OpDelete {
			return errors.New("core: deposit records are never deleted")
		}
		rec, err := decDepositRecord(m.Val)
		if err != nil {
			return err
		}
		b.deposited.Set(id, rec)
	case tblFrozen:
		if m.Op == wal.OpDelete {
			b.frozen.Delete(string(m.Key))
			return nil
		}
		b.frozen.Set(string(m.Key), struct{}{})
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
		rec, err := wire.DecodeExact(m.Val, decodeSettledRec)
		if err != nil {
			return err
		}
		b.settled.Set(id, &rec)
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
