package core

import (
	"bytes"
	"fmt"
	"time"

	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/sig"
	"whopay/internal/store"
)

// Payee-side protocol: answering payment offers, accepting deliveries, and
// watching the public binding list for double spends.

// offerTTL bounds how long a payment offer stays open: the next offer
// after it lapses prunes it, and a delivery against it fails ErrNoOffer.
const offerTTL = 10 * time.Minute

// handleOffer answers a payer's payment offer with a fresh holder key pair
// and a challenge nonce (paper: "W generates a random public/private key
// pair pkCW/skCW, keeps the private key skCW secret and sends the public
// key pkCW to V").
func (p *Peer) handleOffer(m OfferRequest) (any, error) {
	if m.Value <= 0 {
		return nil, fmt.Errorf("%w: non-positive value", ErrBadRequest)
	}
	holderKeys, err := p.suite.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("core: holder keygen: %w", err)
	}
	nonce := p.randBytes(16)
	now := p.cfg.Clock()
	// Prune expired offers so abandoned payments do not accumulate.
	var expired []string
	p.offers.Range(func(k string, po *pendingOffer) bool {
		if now.Sub(po.created) > offerTTL {
			expired = append(expired, k)
		}
		return true
	})
	for _, k := range expired {
		p.offers.Delete(k)
	}
	p.offers.Set(string(holderKeys.Public), &pendingOffer{
		holderKeys: holderKeys,
		nonce:      nonce,
		value:      m.Value,
		created:    now,
	})
	return OfferResponse{HolderPub: holderKeys.Public, Nonce: nonce}, nil
}

// handleDeliver accepts a coin: it verifies the broker's signature on the
// coin, the binding to the holder key we minted for this offer, the
// owner's (or broker's) answer to our challenge, and — when configured —
// the public binding list. Only then does the payment count.
func (p *Peer) handleDeliver(m DeliverRequest) (any, error) {
	po, ok := p.offers.GetAndDelete(string(m.Binding.Holder))
	if !ok {
		return nil, ErrNoOffer
	}

	c := m.Coin
	brokerPub := p.brokerPubFor(string(c.Pub))
	if err := c.Verify(p.suite, brokerPub); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if c.Value != po.value {
		return nil, fmt.Errorf("%w: offered value %d, coin is %d", ErrBadRequest, po.value, c.Value)
	}
	binding := m.Binding
	if err := binding.VerifyFor(p.suite, &c, brokerPub, p.cfg.Clock()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	// Ownership challenge: the deliverer must prove it controls the coin
	// — the broker key for downtime deliveries, the coin key for
	// owner-anonymous coins, the owner's identity key otherwise.
	challengeMsg := coin.ChallengeMessage(c.Pub, po.nonce)
	var challenger sig.PublicKey
	switch {
	case binding.ByBroker:
		challenger = brokerPub
	case c.Anonymous():
		challenger = c.Pub
	default:
		entry, found := p.cfg.Directory.Lookup(c.Owner)
		if !found {
			return nil, fmt.Errorf("%w: coin owner %q", ErrUnknownIdentity, c.Owner)
		}
		challenger = entry.Pub
	}
	if err := p.suite.Verify(challenger, challengeMsg, m.ChallengeSig); err != nil {
		return nil, fmt.Errorf("%w: ownership challenge failed: %v", ErrBadRequest, err)
	}

	// Owner-anonymous issues carry a group signature for fairness (paper
	// Section 5.2: "Peers sign their messages with their group private
	// keys when issuing coins").
	if m.Issue && c.Anonymous() {
		if m.GroupSig == nil {
			return nil, fmt.Errorf("%w: anonymous issue missing group signature", ErrBadRequest)
		}
		if err := p.gsv.Verify(p.suite, binding.Message(), *m.GroupSig); err != nil {
			return nil, fmt.Errorf("%w: issue group signature: %v", ErrBadRequest, err)
		}
	}

	// Real-time detection cross-check (Section 5.1): the public binding
	// list must not contradict the delivered binding. Owners publish
	// right after delivery, so "not yet published" is acceptable; a
	// *conflicting* record at or above our sequence is a double spend.
	if p.cfg.WatchHeldCoins && p.dhtc != nil && !binding.ByBroker {
		rec, found, err := p.dhtc.Get(dht.KeyFor(c.Pub))
		if err == nil && found {
			if rec.Version > binding.Seq {
				return nil, fmt.Errorf("%w: public binding already superseded (v%d > v%d)", ErrStaleBinding, rec.Version, binding.Seq)
			}
			if rec.Version == binding.Seq && !bytes.Equal(rec.Value, binding.Marshal()) {
				return nil, fmt.Errorf("%w: public binding conflicts at v%d — double spend", ErrStaleBinding, binding.Seq)
			}
		}
	}

	// A re-delivery of a coin we already hold keeps its original
	// acquisition stamp so wallet ordering stays stable.
	id := c.ID()
	p.held.Compute(id, func(cur *heldCoin, exists bool) (*heldCoin, store.Op) {
		order := p.heldSeq.Add(1)
		if exists {
			order = cur.order
		}
		next := &heldCoin{
			c:          c.Clone(),
			holderKeys: po.holderKeys,
			order:      order,
			binding:    binding.Clone(),
		}
		p.journalHeldSetLocked(id, next)
		return next, store.OpSet
	})

	if p.cfg.WatchHeldCoins && p.dhtc != nil {
		// Best-effort: a failed subscription only degrades detection.
		_ = p.dhtc.Subscribe(dht.KeyFor(c.Pub), p.cfg.Addr)
	}
	return DeliverResponse{}, nil
}

// VerifyHeldCoin audits a held coin against the public binding list on
// demand: it returns nil when the published binding matches ours (or no
// list is configured for this coin era), and an error describing the
// divergence otherwise — the synchronous complement to the asynchronous
// watch. Holders of high-value coins call it before shipping goods.
func (p *Peer) VerifyHeldCoin(id coin.ID) error {
	if p.dhtc == nil {
		return ErrDetectionOff
	}
	hc, ok := p.held.Get(id)
	if !ok {
		return ErrUnknownCoin
	}
	hc.mu.Lock()
	mine := hc.binding.Clone()
	hc.mu.Unlock()

	rec, found, err := p.dhtc.Get(dht.KeyFor(sig.PublicKey(id)))
	if err != nil {
		return fmt.Errorf("core: reading public binding: %w", err)
	}
	if !found {
		// Publish may trail delivery; treat as pending rather than
		// divergent.
		return nil
	}
	if rec.Version > mine.Seq {
		return fmt.Errorf("%w: public binding at seq %d outruns ours (%d)", ErrStaleBinding, rec.Version, mine.Seq)
	}
	if rec.Version == mine.Seq && !bytes.Equal(rec.Value, mine.Marshal()) {
		return fmt.Errorf("%w: public binding conflicts at seq %d — double spend", ErrStaleBinding, mine.Seq)
	}
	return nil
}

// RecoverHeldBinding re-reads a held coin's public binding and adopts a
// newer binding for the same holder — a renewal or broker refresh whose
// notification this peer missed (it was offline, or its subscription write
// was lost). The adoption rule is exactly handleNotify's: same holder,
// higher sequence, verifiable signature. Re-bindings to other holders are
// never adopted; those are the watch's business, not recovery's.
func (p *Peer) RecoverHeldBinding(id coin.ID) error {
	if p.dhtc == nil {
		return ErrDetectionOff
	}
	hc, ok := p.held.Get(id)
	if !ok {
		return ErrUnknownCoin
	}
	hc.mu.Lock()
	mine := hc.binding.Clone()
	hc.mu.Unlock()

	rec, found, err := p.dhtc.Get(dht.KeyFor(sig.PublicKey(id)))
	if err != nil {
		return fmt.Errorf("core: reading public binding: %w", err)
	}
	if !found {
		return nil
	}
	observed, err := coin.UnmarshalBinding(rec.Value)
	if err != nil {
		return fmt.Errorf("%w: malformed public binding record", ErrBadRequest)
	}
	if !observed.Holder.Equal(mine.Holder) || observed.Seq <= mine.Seq {
		return nil
	}
	if err := observed.Verify(p.suite, p.brokerPubFor(string(id)), p.cfg.Clock()); err != nil {
		return fmt.Errorf("%w: published binding: %v", ErrStaleBinding, err)
	}
	if cur, still := p.held.Get(id); still {
		cur.mu.Lock()
		adopted := observed.Seq > cur.binding.Seq
		if adopted {
			cur.binding = observed.Clone()
		}
		cur.mu.Unlock()
		if adopted {
			p.saveHeld(id)
		}
	}
	return nil
}

// handleNotify processes a register/notify event from the public binding
// list. An update that re-binds a coin we hold — and did not just transfer
// ourselves — is a double spend in progress: record an alert and report it.
func (p *Peer) handleNotify(m dht.Notify) (any, error) {
	if p.dhtc != nil {
		// Freshest possible view of the binding — refresh the lease cache
		// before any TTL would have expired the stale entry.
		p.dhtc.ObserveNotify(m.Rec)
	}
	observed, err := coin.UnmarshalBinding(m.Rec.Value)
	if err != nil {
		return dht.Ack{}, nil // garbage record; ACL should prevent this
	}
	id := coin.ID(observed.CoinPub)

	hc, ok := p.held.Get(id)
	if !ok {
		return dht.Ack{}, nil
	}
	hc.mu.Lock()
	if hc.inFlight {
		hc.mu.Unlock()
		return dht.Ack{}, nil
	}
	if observed.Holder.Equal(hc.binding.Holder) {
		// Same holder (a renewal we made, or a broker refresh): adopt
		// the newer binding for free.
		adopted := false
		if observed.Seq > hc.binding.Seq {
			if observed.Verify(p.suite, p.brokerPubFor(string(id)), p.cfg.Clock()) == nil {
				hc.binding = observed.Clone()
				adopted = true
			}
		}
		hc.mu.Unlock()
		if adopted {
			p.saveHeld(id)
		}
		return dht.Ack{}, nil
	}
	if observed.Seq < hc.binding.Seq {
		hc.mu.Unlock()
		return dht.Ack{}, nil // stale echo
	}
	alert := FraudAlert{CoinID: id, Mine: *hc.binding.Clone(), Observed: *observed}
	myBinding := hc.binding.Clone()
	hc.mu.Unlock()

	alert.Verdict = p.reportFraud(sig.PublicKey(id), myBinding, observed)
	p.stateMu.Lock()
	p.alerts = append(p.alerts, alert)
	p.stateMu.Unlock()
	return dht.Ack{}, nil
}

// reportFraud files the double-spend evidence with the broker, signed with
// a group signature so the victim stays anonymous yet accountable.
func (p *Peer) reportFraud(coinPub sig.PublicKey, mine, observed *coin.Binding) string {
	msg := fraudReportMessage(coinPub, mine, observed)
	gs, err := p.member.Sign(p.suite, msg)
	if err != nil {
		return "report unsigned: " + err.Error()
	}
	resp, err := p.callBroker(string(coinPub), FraudReport{
		CoinPub:   coinPub.Clone(),
		MyBinding: *mine,
		Observed:  *observed,
		GroupSig:  gs,
	})
	if err != nil {
		return "report failed: " + err.Error()
	}
	fr, ok := resp.(FraudResponse)
	if !ok {
		return "report got unexpected response"
	}
	if fr.Punished != "" {
		return fr.Verdict + " (punished: " + fr.Punished + ")"
	}
	return fr.Verdict
}
