package core

import (
	"errors"
	"fmt"

	"whopay/internal/coin"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Peer-side durability (DESIGN.md §10). A peer's wallet journals whole-entry
// states — one record per owned or held coin, rewritten on every mutation —
// rather than deltas: entries are small, full states make replay trivially
// idempotent, and the per-entry record is atomic (a torn write loses the
// whole update, never half a binding).
//
// Ordering: every journal append happens under the owning store shard's
// write lock (saveOwned/saveHeld go through Compute), so the journal order
// matches the memory order per coin even under concurrent payments.
// Lock order: store shard -> entry mutex -> log mutex, consistent with the
// peer's documented hierarchy.
//
// Not persisted, by design:
//   - pending offers: an open offer's holder key dies with the process; the
//     payer's delivery fails ErrNoOffer and the payment restarts cleanly.
//   - group member credentials: MemberKey holds judge-coupled secrets with
//     a refill channel; a recovered peer re-enrolls instead.
//   - fraud alerts and trigger versions: operational, reconstructible.

// ownedRec is the journaled form of an ownedCoin. The audit trail is stored
// as aligned slices in logOrder order (the in-memory map has no order).
type ownedRec struct {
	Coin       coin.Coin
	CoinKeys   sig.KeyPair
	HandleKeys *sig.KeyPair
	Binding    *coin.Binding // nil when never issued
	SelfHeld   bool
	LogSeqs    []uint64
	LogProofs  []RelinquishProof
}

func (r *ownedRec) appendWire(dst []byte) []byte {
	dst = r.Coin.AppendWire(dst)
	dst = appendKeyPair(dst, r.CoinKeys)
	dst = wire.AppendBool(dst, r.HandleKeys != nil)
	if r.HandleKeys != nil {
		dst = appendKeyPair(dst, *r.HandleKeys)
	}
	dst = coin.AppendWireBindingPtr(dst, r.Binding)
	dst = wire.AppendBool(dst, r.SelfHeld)
	dst = wire.AppendList(dst, r.LogSeqs, appendSeq)
	return wire.AppendList(dst, r.LogProofs, (*RelinquishProof).appendWire)
}

func decodeOwnedRec(d *wire.Decoder) (ownedRec, error) {
	var r ownedRec
	var err error
	if r.Coin, err = coin.DecodeWireCoin(d); err != nil {
		return r, err
	}
	if r.CoinKeys, err = decodeKeyPair(d); err != nil {
		return r, err
	}
	hasHandle, err := d.Bool()
	if err != nil {
		return r, err
	}
	if hasHandle {
		hk, err := decodeKeyPair(d)
		if err != nil {
			return r, err
		}
		r.HandleKeys = &hk
	}
	if r.Binding, err = coin.DecodeWireBindingPtr(d); err != nil {
		return r, err
	}
	if r.SelfHeld, err = d.Bool(); err != nil {
		return r, err
	}
	if r.LogSeqs, err = wire.DecodeList(d, (*wire.Decoder).U64); err != nil {
		return r, err
	}
	r.LogProofs, err = wire.DecodeList(d, decodeRelinquishProof)
	return r, err
}

// encOwnedLocked encodes an owned coin; the caller holds oc.mu.
func encOwnedLocked(oc *ownedCoin) []byte {
	rec := ownedRec{
		Coin:       *oc.c,
		CoinKeys:   oc.coinKeys,
		HandleKeys: oc.handleKeys,
		Binding:    oc.binding,
		SelfHeld:   oc.selfHeld,
		LogSeqs:    oc.logOrder,
	}
	for _, seq := range rec.LogSeqs {
		rec.LogProofs = append(rec.LogProofs, oc.log[seq])
	}
	return rec.appendWire(nil)
}

func decOwned(b []byte) (*ownedCoin, error) {
	rec, err := wire.DecodeExact(b, decodeOwnedRec)
	if err != nil {
		return nil, err
	}
	if len(rec.LogSeqs) != len(rec.LogProofs) {
		return nil, errors.New("core: owned record audit-trail length mismatch")
	}
	oc := &ownedCoin{
		c:          &rec.Coin,
		coinKeys:   rec.CoinKeys,
		handleKeys: rec.HandleKeys,
		binding:    rec.Binding,
		selfHeld:   rec.SelfHeld,
	}
	if len(rec.LogSeqs) > 0 {
		oc.log = make(map[uint64]RelinquishProof, len(rec.LogSeqs))
		oc.logOrder = rec.LogSeqs
		for i, seq := range rec.LogSeqs {
			oc.log[seq] = rec.LogProofs[i]
		}
	}
	return oc, nil
}

// heldRec is the journaled form of a heldCoin.
type heldRec struct {
	Coin       coin.Coin
	HolderKeys sig.KeyPair
	Order      uint64
	Binding    coin.Binding
}

func (r *heldRec) appendWire(dst []byte) []byte {
	dst = r.Coin.AppendWire(dst)
	dst = appendKeyPair(dst, r.HolderKeys)
	dst = wire.AppendU64(dst, r.Order)
	return r.Binding.AppendWire(dst)
}

func decodeHeldRec(d *wire.Decoder) (heldRec, error) {
	var r heldRec
	var err error
	if r.Coin, err = coin.DecodeWireCoin(d); err != nil {
		return r, err
	}
	if r.HolderKeys, err = decodeKeyPair(d); err != nil {
		return r, err
	}
	if r.Order, err = d.U64(); err != nil {
		return r, err
	}
	r.Binding, err = coin.DecodeWireBinding(d)
	return r, err
}

// encHeldLocked encodes a held coin; the caller holds hc.mu (or the entry
// is not yet published).
func encHeldLocked(hc *heldCoin) []byte {
	rec := heldRec{
		Coin:       *hc.c,
		HolderKeys: hc.holderKeys,
		Order:      hc.order,
		Binding:    *hc.binding,
	}
	return rec.appendWire(nil)
}

func decHeld(b []byte) (*heldCoin, error) {
	rec, err := wire.DecodeExact(b, decodeHeldRec)
	if err != nil {
		return nil, err
	}
	return &heldCoin{
		c:          &rec.Coin,
		holderKeys: rec.HolderKeys,
		order:      rec.Order,
		binding:    &rec.Binding,
	}, nil
}

// journalPeerKeys writes (and force-syncs) the peer's identity keys.
func (p *Peer) journalPeerKeys() {
	p.persist.batch(wal.Set(tblMeta, []byte(metaKeysKey), encKeys(p.cfg.Scheme, p.keys)))
	p.persist.fail(p.persist.log.Sync())
}

// saveOwned re-journals an owned coin's full current state. Call it after
// releasing the entry mutex at any mutation site; capture and append are
// atomic under the shard write lock plus oc.mu, so concurrent saves land in
// the journal in state order.
func (p *Peer) saveOwned(id coin.ID) {
	if p.persist == nil {
		return
	}
	p.owned.ComputeIfPresent(id, func(oc *ownedCoin) (*ownedCoin, store.Op) {
		oc.mu.Lock()
		val := encOwnedLocked(oc)
		oc.mu.Unlock()
		p.persist.batch(wal.Set(tblOwned, []byte(id), val))
		return oc, store.OpKeep
	})
}

// saveHeld re-journals a held coin's full current state (same discipline as
// saveOwned).
func (p *Peer) saveHeld(id coin.ID) {
	if p.persist == nil {
		return
	}
	p.held.ComputeIfPresent(id, func(hc *heldCoin) (*heldCoin, store.Op) {
		hc.mu.Lock()
		val := encHeldLocked(hc)
		hc.mu.Unlock()
		p.persist.batch(wal.Set(tblHeld, []byte(id), val))
		return hc, store.OpKeep
	})
}

// journalHeldSetLocked journals a held entry from inside a store Compute
// (the shard write lock is held; hc is fresh or entry-locked by the caller).
func (p *Peer) journalHeldSetLocked(id coin.ID, hc *heldCoin) {
	if p.persist == nil {
		return
	}
	p.persist.batch(wal.Set(tblHeld, []byte(id), encHeldLocked(hc)))
}

// dropHeld removes a held coin, journaling the delete under the shard lock
// so it cannot interleave wrongly with a concurrent save. It returns the
// removed entry (relinquished coins must never resurrect on replay).
func (p *Peer) dropHeld(id coin.ID) (*heldCoin, bool) {
	var out *heldCoin
	found := false
	p.held.Compute(id, func(cur *heldCoin, exists bool) (*heldCoin, store.Op) {
		if !exists {
			return cur, store.OpKeep
		}
		out, found = cur, true
		if p.persist != nil {
			p.persist.batch(wal.Delete(tblHeld, []byte(id)))
		}
		return cur, store.OpDelete
	})
	return out, found
}

// PersistenceErr returns the first durability failure since the peer
// started, or nil.
func (p *Peer) PersistenceErr() error {
	if p.persist == nil {
		return nil
	}
	return p.persist.Err()
}

// Recovered reports whether this peer replayed durable state at startup.
func (p *Peer) Recovered() bool { return p.recovered }

// maybePersistSnapshot cuts a compaction snapshot when due. Never call it
// while holding a store shard lock (the emitter ranges the stores).
func (p *Peer) maybePersistSnapshot() {
	if p.persist != nil && p.persist.log.SnapshotDue() {
		p.persist.fail(p.CompactLog())
	}
}

// CompactLog writes a full-wallet snapshot and truncates the journal to it.
func (p *Peer) CompactLog() error {
	if p.persist == nil {
		return nil
	}
	return p.persist.log.Snapshot(func(app func([]byte) error) error {
		emit := func(muts ...wal.Mutation) error { return app(wal.EncodeBatch(muts)) }
		if err := emit(wal.Set(tblMeta, []byte(metaKeysKey), encKeys(p.cfg.Scheme, p.keys))); err != nil {
			return err
		}
		var failed error
		p.owned.Range(func(id coin.ID, oc *ownedCoin) bool {
			oc.mu.Lock()
			val := encOwnedLocked(oc)
			oc.mu.Unlock()
			failed = emit(wal.Set(tblOwned, []byte(id), val))
			return failed == nil
		})
		if failed != nil {
			return failed
		}
		p.held.Range(func(id coin.ID, hc *heldCoin) bool {
			hc.mu.Lock()
			val := encHeldLocked(hc)
			hc.mu.Unlock()
			failed = emit(wal.Set(tblHeld, []byte(id), val))
			return failed == nil
		})
		return failed
	})
}

// recoverPeerState replays the journal into the wallet. Must run before the
// peer starts serving. Returns whether any durable state was found.
func (p *Peer) recoverPeerState() (bool, error) {
	found := false
	err := p.persist.log.Replay(func(payload []byte) error {
		muts, err := wal.DecodeBatch(payload)
		if err != nil {
			return err
		}
		found = found || len(muts) > 0
		for _, m := range muts {
			if err := p.applyRecovered(m); err != nil {
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
	// Re-derive the scalars and mark owner state suspect: the world moved
	// while we were dead, exactly like downtime — the lazy-sync machinery
	// (or the next GoOnline) reconciles.
	var maxOrder uint64
	p.held.Range(func(_ coin.ID, hc *heldCoin) bool {
		if hc.order > maxOrder {
			maxOrder = hc.order
		}
		return true
	})
	p.heldSeq.Store(maxOrder)
	p.owned.Range(func(_ coin.ID, oc *ownedCoin) bool {
		oc.mu.Lock()
		oc.dirty = true
		oc.mu.Unlock()
		return true
	})
	return true, nil
}

// applyRecovered applies one replayed wallet mutation.
func (p *Peer) applyRecovered(m wal.Mutation) error {
	id := coin.ID(m.Key)
	switch m.Table {
	case tblMeta:
		if string(m.Key) != metaKeysKey || m.Op != wal.OpSet {
			return fmt.Errorf("core: unknown peer meta record %q", m.Key)
		}
		keys, err := decKeys(m.Val, p.cfg.Scheme)
		if err != nil {
			return err
		}
		p.keys = keys
	case tblOwned:
		if m.Op == wal.OpDelete {
			p.owned.Delete(id)
			return nil
		}
		oc, err := decOwned(m.Val)
		if err != nil {
			return err
		}
		p.owned.Set(id, oc)
	case tblHeld:
		if m.Op == wal.OpDelete {
			p.held.Delete(id)
			return nil
		}
		hc, err := decHeld(m.Val)
		if err != nil {
			return err
		}
		p.held.Set(id, hc)
	default:
		return fmt.Errorf("core: peer journal has unknown table %q", m.Table)
	}
	return nil
}

// RecoverPeer starts a peer from the durable wallet under
// cfg.Persistence.Dir, failing when there is none. The recovered peer
// re-enrolls with the judge (group credentials are not persisted) and comes
// up in the same state a rejoining owner would: call GoOnline to re-register
// indirection triggers and synchronize owner-side bindings.
func RecoverPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Persistence == nil {
		return nil, errors.New("core: RecoverPeer needs cfg.Persistence")
	}
	p, err := NewPeer(cfg)
	if err != nil {
		return nil, err
	}
	if !p.recovered {
		_ = p.Close()
		return nil, fmt.Errorf("core: no durable peer state under %s", cfg.Persistence.Dir)
	}
	return p, nil
}
