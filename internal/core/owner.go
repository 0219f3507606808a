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

	deliver := DeliverRequest{Coin: *c, Binding: *binding, Issue: true}
	challengeMsg := coin.ChallengeMessage(c.Pub, offer.Nonce)
	if c.Anonymous() {
		if deliver.ChallengeSig, err = p.suite.Sign(oc.coinKeys.Private, challengeMsg); err != nil {
			return fmt.Errorf("core: signing challenge: %w", err)
		}
		gs, err := p.member.Sign(p.suite, binding.Message())
		if err != nil {
			return fmt.Errorf("core: group-signing issue: %w", err)
		}
		deliver.GroupSig = &gs
	} else {
		if deliver.ChallengeSig, err = p.suite.Sign(p.keys.Private, challengeMsg); err != nil {
			return fmt.Errorf("core: signing challenge: %w", err)
		}
	}

	if _, err := p.call(payee, deliver); err != nil {
		return fmt.Errorf("core: delivering issue: %w", err)
	}

	oc.mu.Lock()
	oc.binding = binding
	oc.selfHeld = false
	oc.dirty = false
	oc.mu.Unlock()
	p.saveOwned(id)

	p.publishOwnedBinding(oc, binding)
	p.ops.Inc(OpIssue)
	return nil
}

// handleTransferRequest services a transfer of a coin this peer owns: it
// validates the current holder's relinquishment and group signature,
// re-binds the coin to the payee's fresh holder key, delivers, records the
// relinquishment proof in the audit trail, and publishes the new binding.
func (p *Peer) handleTransferRequest(m TransferRequest) (any, error) {
	id := coin.ID(m.Body.CoinPub)
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, ErrNotOwner
	}
	// Build the canonical messages before taking the coin's service lock:
	// they depend only on the request, and every byte of work done under
	// svc serializes all other requests for this coin.
	bodyMsg := m.Body.Message()
	challengeMsg := coin.ChallengeMessage(m.Body.CoinPub, m.Body.Nonce)
	if !oc.svc.TryLock() {
		return nil, ErrCoinBusy
	}
	defer oc.svc.Unlock()

	if err := p.ownerCatchUp(oc, m.PresentedBinding); err != nil {
		return nil, err
	}

	oc.mu.Lock()
	if oc.binding == nil {
		oc.mu.Unlock()
		return nil, fmt.Errorf("%w: coin was never issued", ErrStaleBinding)
	}
	cur := oc.binding.Clone()
	oc.mu.Unlock()
	c := oc.c

	if m.Body.PrevSeq != cur.Seq {
		return nil, fmt.Errorf("%w: request cites seq %d, current is %d", ErrStaleBinding, m.Body.PrevSeq, cur.Seq)
	}
	if err := verifyHolderAndGroup(p.suite, p.gsv, p.groupPub, cur.Holder, bodyMsg, m.HolderSig, m.GroupSig); err != nil {
		return nil, err
	}

	next := &coin.Binding{
		CoinPub: c.Pub.Clone(),
		Holder:  m.Body.NewHolder.Clone(),
		Seq:     cur.Seq + 1,
		// A transfer does not extend the coin's life — renewals do.
		// (Otherwise a circulating coin would never need renewal and
		// the paper's renewal load could not exist.) A coin that sat
		// out its expiry with an offline holder is refreshed here.
		Expiry: renewedExpiry(cur.Expiry, p.cfg.Clock(), p.cfg.RenewalPeriod, false),
	}
	var err error
	if next.Sig, err = p.suite.Sign(oc.coinKeys.Private, next.Message()); err != nil {
		return nil, fmt.Errorf("core: signing transfer binding: %w", err)
	}
	deliver := DeliverRequest{Coin: *c, Binding: *next}
	if c.Anonymous() {
		deliver.ChallengeSig, err = p.suite.Sign(oc.coinKeys.Private, challengeMsg)
	} else {
		deliver.ChallengeSig, err = p.suite.Sign(p.keys.Private, challengeMsg)
	}
	if err != nil {
		return nil, fmt.Errorf("core: signing challenge: %w", err)
	}

	// Deliver before committing: a failed delivery leaves the original
	// holder bound, with nothing published to roll back.
	if _, err := p.call(bus.Address(m.Body.PayeeAddr), deliver); err != nil {
		return TransferResponse{OK: false, Reason: "payee delivery failed: " + err.Error()}, nil
	}

	oc.mu.Lock()
	oc.binding = next
	proof := RelinquishProof{Body: m.Body, HolderSig: m.HolderSig, PrevHold: cur.Holder.Clone()}
	evicted := p.recordProofLocked(oc, proof)
	oc.mu.Unlock()
	p.saveOwnedProof(id, &proof, evicted)

	p.publishOwnedBinding(oc, next)
	p.ops.Inc(OpTransfer)
	return TransferResponse{OK: true}, nil
}

// handleRenewRequest services a renewal for a coin this peer owns: same
// holder, next sequence number, fresh expiry (paper Section 4.2, Renewal).
func (p *Peer) handleRenewRequest(m RenewRequest) (any, error) {
	id := coin.ID(m.CoinPub)
	oc, ok := p.owned.Get(id)
	if !ok {
		return nil, ErrNotOwner
	}
	// As in handleTransferRequest: message construction stays outside svc.
	msg := renewMessage(m.CoinPub, m.Seq)
	if !oc.svc.TryLock() {
		return nil, ErrCoinBusy
	}
	defer oc.svc.Unlock()
	if err := p.ownerCatchUp(oc, m.PresentedBinding); err != nil {
		return nil, err
	}

	oc.mu.Lock()
	if oc.binding == nil {
		oc.mu.Unlock()
		return nil, fmt.Errorf("%w: coin was never issued", ErrStaleBinding)
	}
	cur := oc.binding.Clone()
	oc.mu.Unlock()
	c := oc.c

	if m.Seq != cur.Seq {
		return nil, fmt.Errorf("%w: request cites seq %d, current is %d", ErrStaleBinding, m.Seq, cur.Seq)
	}
	if err := verifyHolderAndGroup(p.suite, p.gsv, p.groupPub, cur.Holder, msg, m.HolderSig, m.GroupSig); err != nil {
		return nil, err
	}

	next := &coin.Binding{
		CoinPub: c.Pub.Clone(),
		Holder:  cur.Holder.Clone(),
		Seq:     cur.Seq + 1,
		Expiry:  renewedExpiry(cur.Expiry, p.cfg.Clock(), p.cfg.RenewalPeriod, true),
	}
	var err error
	if next.Sig, err = p.suite.Sign(oc.coinKeys.Private, next.Message()); err != nil {
		return nil, fmt.Errorf("core: signing renewal binding: %w", err)
	}

	oc.mu.Lock()
	oc.binding = next
	proof := RelinquishProof{
		Renewal:   true,
		Body:      coin.TransferBody{CoinPub: c.Pub.Clone(), PrevSeq: cur.Seq},
		HolderSig: m.HolderSig,
		PrevHold:  cur.Holder.Clone(),
	}
	evicted := p.recordProofLocked(oc, proof)
	oc.mu.Unlock()
	p.saveOwnedProof(id, &proof, evicted)

	p.publishOwnedBinding(oc, next)
	p.ops.Inc(OpRenewal)
	return RenewResponse{Binding: *next}, nil
}

// renewedExpiry computes a binding's expiry. Renewals extend by the
// renewal period; transfers preserve the current expiry (refreshing it only
// when already past, so stale coins revive on their next hop instead of
// wedging).
func renewedExpiry(current int64, now time.Time, period time.Duration, renewal bool) int64 {
	if renewal || current <= now.Unix() {
		return now.Add(period).Unix()
	}
	return current
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

// publishOwnedBinding writes the binding to the public binding list, signed
// with the coin key (only the owner knows it — the DHT's write ACL).
func (p *Peer) publishOwnedBinding(oc *ownedCoin, binding *coin.Binding) {
	if p.dhtc == nil || !p.cfg.PublishBindings {
		return
	}
	rec, err := dht.SignRecord(p.suite, oc.coinKeys, dht.KeyFor(oc.c.Pub), binding.Seq, binding.Marshal())
	if err != nil {
		return
	}
	// Best effort: a failed publish degrades detection, not the payment.
	_ = p.dhtc.Put(rec)
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
