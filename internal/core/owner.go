package core

import (
	"fmt"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/sig"
)

// Owner-side protocol: issuing coins, servicing transfers and renewals for
// coins this peer owns, lazy synchronization, and dispute answering.

// IssueTo spends a self-held owned coin by issuing it to the payee (paper
// Section 4.2, Issue). For owner-anonymous coins the ownership challenge is
// answered with the coin key and a group signature accompanies the issue.
func (p *Peer) IssueTo(payee bus.Address, id coin.ID) error {
	sp := p.instr.Begin("issue")
	err := p.issueTo(payee, id)
	p.instr.End(sp, err)
	return err
}

func (p *Peer) issueTo(payee bus.Address, id coin.ID) error {
	oc, ok := p.owned.Get(id)
	if !ok {
		return ErrUnknownCoin
	}
	if !oc.svc.TryLock() {
		return ErrCoinBusy
	}
	defer oc.svc.Unlock()
	oc.mu.Lock()
	selfHeld := oc.selfHeld
	oc.mu.Unlock()
	if !selfHeld {
		return fmt.Errorf("%w: coin already issued", ErrNoCoinAvailable)
	}
	c := oc.c

	resp, err := p.call(payee, OfferRequest{Value: c.Value})
	if err != nil {
		return fmt.Errorf("core: offering payment: %w", err)
	}
	offer, ok := resp.(OfferResponse)
	if !ok {
		return fmt.Errorf("%w: unexpected offer response %T", ErrBadRequest, resp)
	}

	binding := &coin.Binding{
		CoinPub: c.Pub.Clone(),
		Holder:  offer.HolderPub.Clone(),
		Seq:     p.randSeq(),
		Expiry:  p.cfg.Clock().Add(p.cfg.RenewalPeriod).Unix(),
	}
	if binding.Sig, err = p.suite.Sign(oc.coinKeys.Private, binding.Message()); err != nil {
		return fmt.Errorf("core: signing issue binding: %w", err)
	}

	d := DeliverRequest{Coin: *c, Binding: *binding, Issue: true}
	if c.Anonymous() {
		gs, err := p.member.Sign(p.suite, binding.Message())
		if err != nil {
			return fmt.Errorf("core: group-signing issue: %w", err)
		}
		d.GroupSig = &gs
	}
	if err := deliver(p.call, p.suite, p.challengeKey(oc), payee, offer.Nonce, d); err != nil {
		return err
	}

	oc.mu.Lock()
	oc.binding = binding
	oc.selfHeld = false
	oc.dirty = false
	oc.mu.Unlock()
	p.saveOwned(id)

	publish(p.dhtc, p.suite, oc.coinKeys, binding)
	p.ops.Inc(OpIssue)
	return nil
}

// serviceOwned services a transfer or renewal of a coin this peer owns
// (paper Section 4.2): it catches up on downtime re-bindings, runs the
// rebind decision under the coin key, delivers a transfer to its payee,
// records and journals the relinquishment proof, and publishes the new
// binding.
func (p *Peer) serviceOwned(r rebindReq) (any, error) {
	id := coin.ID(r.body.CoinPub)
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, ErrNotOwner
	}
	if !oc.svc.TryLock() {
		return nil, ErrCoinBusy
	}
	defer oc.svc.Unlock()

	if err := p.ownerCatchUp(oc, r.presented); err != nil {
		return nil, err
	}

	oc.mu.Lock()
	if oc.binding == nil {
		oc.mu.Unlock()
		return nil, fmt.Errorf("%w: coin was never issued", ErrStaleBinding)
	}
	cur := oc.binding.Clone()
	oc.mu.Unlock()

	next, proof, err := rebind(p.suite, p.gsv, p.groupPub, oc.coinKeys.Private, false, oc.c, cur, r, p.cfg.Clock(), p.cfg.RenewalPeriod)
	if err != nil {
		return nil, err
	}
	// Deliver before committing: a failed delivery leaves the original
	// holder bound, with nothing published to roll back.
	if !r.renewal {
		if err := deliver(p.call, p.suite, p.challengeKey(oc), bus.Address(r.body.PayeeAddr), r.body.Nonce, DeliverRequest{Coin: *oc.c, Binding: *next}); err != nil {
			return undelivered(err)
		}
	}

	oc.mu.Lock()
	oc.binding = next
	evicted := p.recordProofLocked(oc, proof)
	oc.mu.Unlock()
	p.saveOwnedProof(id, &proof, evicted)

	publish(p.dhtc, p.suite, oc.coinKeys, next)
	if r.renewal {
		p.ops.Inc(OpRenewal)
		return RenewResponse{Binding: *next}, nil
	}
	p.ops.Inc(OpTransfer)
	return TransferResponse{OK: true}, nil
}

// challengeKey is the key that answers a payee's ownership challenge for an
// owned coin: the coin key when the owner is anonymous (Section 5.2), else
// the identity key the payee finds in the directory.
func (p *Peer) challengeKey(oc *ownedCoin) sig.PrivateKey {
	if oc.c.Anonymous() {
		return oc.coinKeys.Private
	}
	return p.keys.Private
}

// ownerCatchUp reconciles the owner's local binding with reality after
// downtime. Under lazy sync the first request per coin triggers a public
// binding list check (counted as a "check"; an adoption is a "lazy sync" —
// the operations Figure 5 reports). Without a DHT the holder's presented
// broker-signed binding serves as the catch-up evidence. Callers hold
// oc.svc, so at most one catch-up runs per coin at a time.
func (p *Peer) ownerCatchUp(oc *ownedCoin, presented *coin.Binding) error {
	oc.mu.Lock()
	dirty := oc.dirty
	var localSeq uint64
	if oc.binding != nil {
		localSeq = oc.binding.Seq
	}
	oc.mu.Unlock()
	c := oc.c

	if dirty && p.dhtc != nil {
		p.ops.Inc(OpCheck)
		rec, found, err := p.dhtc.Get(dht.KeyFor(c.Pub))
		if err == nil && found && rec.Version > localSeq {
			if observed, perr := coin.UnmarshalBinding(rec.Value); perr == nil {
				// Only broker-signed records can legitimately
				// outrun the owner's own state.
				if observed.VerifyFor(p.suite, c, p.brokerPubFor(string(c.Pub)), time.Time{}) == nil && observed.ByBroker {
					oc.mu.Lock()
					oc.binding = observed
					oc.selfHeld = false
					oc.mu.Unlock()
					p.saveOwned(c.ID())
					p.ops.Inc(OpLazySync)
					localSeq = observed.Seq
				}
			}
		}
		oc.mu.Lock()
		oc.dirty = false
		oc.mu.Unlock()
	}

	// Fallback catch-up from presented evidence (also covers deployments
	// without a DHT): a valid broker-signed binding newer than ours
	// proves downtime operations we missed.
	if presented != nil && presented.ByBroker && presented.Seq > localSeq {
		if err := presented.VerifyFor(p.suite, c, p.brokerPubFor(string(c.Pub)), time.Time{}); err != nil {
			return fmt.Errorf("%w: presented binding: %v", ErrStaleBinding, err)
		}
		oc.mu.Lock()
		oc.binding = presented.Clone()
		oc.selfHeld = false
		oc.mu.Unlock()
		p.saveOwned(c.ID())
		p.ops.Inc(OpLazySync)
	}
	return nil
}

// recordProofLocked adds a proof to the coin's audit trail, enforcing the
// configured cap, and returns the seq of the proof the cap evicted, if any:
// the oldest, which is the smallest seq since a coin's seq only grows.
// Callers hold oc.mu.
func (p *Peer) recordProofLocked(oc *ownedCoin, proof RelinquishProof) (evicted []uint64) {
	if oc.log == nil {
		oc.log = make(map[uint64]RelinquishProof)
	}
	oc.log[proof.Body.PrevSeq] = proof
	if cap := p.cfg.AuditLogCap; cap > 0 && len(oc.log) > cap {
		oldest := proof.Body.PrevSeq
		for s := range oc.log {
			oldest = min(oldest, s)
		}
		delete(oc.log, oldest)
		return []uint64{oldest}
	}
	return nil
}

// handleDispute answers the broker's audit-trail request with the
// relinquishment proofs covering [FromSeq, ToSeq).
func (p *Peer) handleDispute(m DisputeRequest) (any, error) {
	oc, ok := p.owned.Get(coin.ID(m.CoinPub))
	if !ok {
		return nil, ErrNotOwner
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	var proofs []RelinquishProof
	for seq := m.FromSeq; seq < m.ToSeq; seq++ {
		if proof, found := oc.log[seq]; found {
			proofs = append(proofs, proof)
		}
	}
	return DisputeResponse{Proofs: proofs}, nil
}

// ForgeRebind exists for fraud-injection tests and examples: it makes this
// owner sign a binding handing the coin to an arbitrary key at an arbitrary
// sequence number, without holder consent — the owner double-spend the
// detection machinery must catch. It never touches local state.
func (p *Peer) ForgeRebind(id coin.ID, rival sig.PublicKey, seq uint64) (*coin.Binding, error) {
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, ErrUnknownCoin
	}
	oc.mu.Lock()
	if oc.binding == nil {
		oc.mu.Unlock()
		return nil, ErrUnknownCoin
	}
	forged := &coin.Binding{
		CoinPub: oc.c.Pub.Clone(),
		Holder:  rival.Clone(),
		Seq:     seq,
		Expiry:  oc.binding.Expiry,
	}
	oc.mu.Unlock()
	keys := oc.coinKeys
	var err error
	if forged.Sig, err = p.suite.Sign(keys.Private, forged.Message()); err != nil {
		return nil, err
	}
	return forged, nil
}

// PublishForgedBinding pushes a forged binding to the public binding list
// without touching local state — the second half of the owner double-spend
// the detection machinery must catch (fraud-injection support for tests and
// examples).
func (p *Peer) PublishForgedBinding(id coin.ID, forged *coin.Binding) error {
	if p.dhtc == nil {
		return ErrDetectionOff
	}
	oc, ok := p.owned.Get(id)
	if !ok {
		return ErrUnknownCoin
	}
	rec, err := dht.SignRecord(p.suite, oc.coinKeys, dht.KeyFor(oc.c.Pub), forged.Seq, forged.Marshal())
	if err != nil {
		return err
	}
	return p.dhtc.Put(rec)
}

// ForgeDoubleIssue forges a conflicting binding at the coin's current
// sequence number (see ForgeRebind).
func (p *Peer) ForgeDoubleIssue(id coin.ID, rival sig.PublicKey) (*coin.Binding, error) {
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, ErrUnknownCoin
	}
	oc.mu.Lock()
	if oc.binding == nil {
		oc.mu.Unlock()
		return nil, ErrUnknownCoin
	}
	seq := oc.binding.Seq
	oc.mu.Unlock()
	return p.ForgeRebind(id, rival, seq)
}
