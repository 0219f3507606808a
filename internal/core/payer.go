package core

import (
	"errors"
	"fmt"
	"strings"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
)

// Payer/holder-side protocol: purchasing, spending (transfer via owner or
// broker), renewing, depositing, and synchronizing.

// Purchase buys a coin of the given value from the broker. With anonymous
// set, the coin carries an indirection handle instead of the owner identity
// (paper Section 5.2) — this requires configured indirection servers.
func (p *Peer) Purchase(value int64, anonymous bool) (coin.ID, error) {
	sp := p.instr.Begin("purchase")
	id, err := p.purchase(value, anonymous)
	p.instr.End(sp, err)
	return id, err
}

func (p *Peer) purchase(value int64, anonymous bool) (coin.ID, error) {
	coinKeys, err := p.suite.GenerateKey()
	if err != nil {
		return "", fmt.Errorf("core: coin keygen: %w", err)
	}
	var handleKeys *sig.KeyPair
	var handle []byte
	if anonymous {
		if p.indir == nil {
			return "", errors.New("core: anonymous coins need indirection servers")
		}
		hk, err := p.suite.GenerateKey()
		if err != nil {
			return "", fmt.Errorf("core: handle keygen: %w", err)
		}
		handleKeys = &hk
		handle = hk.Public
		p.stateMu.Lock()
		p.trigVersion++
		version := p.trigVersion
		p.stateMu.Unlock()
		if err := p.indir.Register(p.suite, hk, p.cfg.Addr, version); err != nil {
			return "", fmt.Errorf("core: registering handle trigger: %w", err)
		}
	}

	req := PurchaseRequest{
		Buyer:     p.cfg.ID,
		CoinPub:   coinKeys.Public,
		Handle:    handle,
		Value:     value,
		Anonymous: anonymous,
	}
	if req.Sig, err = p.suite.Sign(p.keys.Private, purchaseMessage(req.Buyer, req.CoinPub, req.Handle, req.Value, req.Anonymous)); err != nil {
		return "", fmt.Errorf("core: signing purchase: %w", err)
	}
	resp, err := p.callBroker(string(coinKeys.Public), req)
	if err != nil {
		return "", fmt.Errorf("core: purchase: %w", err)
	}
	pr, ok := resp.(PurchaseResponse)
	if !ok {
		return "", fmt.Errorf("%w: unexpected purchase response %T", ErrBadRequest, resp)
	}
	c := pr.Coin
	if err := c.Verify(p.suite, p.brokerPubFor(string(coinKeys.Public))); err != nil {
		return "", fmt.Errorf("core: broker returned bad coin: %w", err)
	}
	if !c.Pub.Equal(coinKeys.Public) || c.Value != value {
		return "", fmt.Errorf("%w: broker returned mismatched coin", ErrBadRequest)
	}

	p.owned.Set(c.ID(), &ownedCoin{
		c:          c.Clone(),
		coinKeys:   coinKeys,
		handleKeys: handleKeys,
		selfHeld:   true,
	})
	p.saveOwned(c.ID())
	p.ops.Inc(OpPurchase)
	return c.ID(), nil
}

// PurchaseBatch buys n coins of the given value under a single broker
// round-trip and one authorizing signature (paper Section 4.2's batch
// purchase). Only non-anonymous coins batch (anonymous coins each need
// their own indirection handle registration).
func (p *Peer) PurchaseBatch(n int, value int64) ([]coin.ID, error) {
	sp := p.instr.Begin("purchase-batch")
	ids, err := p.purchaseBatch(n, value)
	p.instr.End(sp, err)
	return ids, err
}

func (p *Peer) purchaseBatch(n int, value int64) ([]coin.ID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrBadRequest, n)
	}
	keys := make([]sig.KeyPair, n)
	pubs := make([]sig.PublicKey, n)
	for i := 0; i < n; i++ {
		kp, err := p.suite.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("core: batch coin keygen: %w", err)
		}
		keys[i] = kp
		pubs[i] = kp.Public
	}
	// Under federation the generated coins home on different shards: group
	// the batch by shard and issue one signed request per shard leader.
	// Unfederated, everything lands in one group (shard 0).
	groups := map[int][]int{}
	for i, pub := range pubs {
		shard := p.shardOf(string(pub))
		groups[shard] = append(groups[shard], i)
	}
	ids := make([]coin.ID, n)
	for _, idxs := range groups {
		gp := make([]sig.PublicKey, len(idxs))
		for j, i := range idxs {
			gp[j] = pubs[i]
		}
		req := BatchPurchaseRequest{Buyer: p.cfg.ID, CoinPubs: gp, Value: value}
		var err error
		if req.Sig, err = p.suite.Sign(p.keys.Private, batchPurchaseMessage(req.Buyer, gp, value)); err != nil {
			return nil, fmt.Errorf("core: signing batch purchase: %w", err)
		}
		resp, err := p.callBroker(string(gp[0]), req)
		if err != nil {
			return nil, fmt.Errorf("core: batch purchase: %w", err)
		}
		br, ok := resp.(BatchPurchaseResponse)
		if !ok || len(br.Coins) != len(idxs) {
			return nil, fmt.Errorf("%w: unexpected batch response", ErrBadRequest)
		}
		for j := range br.Coins {
			c := br.Coins[j]
			i := idxs[j]
			if err := c.Verify(p.suite, p.brokerPubFor(string(c.Pub))); err != nil {
				return nil, fmt.Errorf("core: broker returned bad batch coin: %w", err)
			}
			if !c.Pub.Equal(pubs[i]) || c.Value != value {
				return nil, fmt.Errorf("%w: batch coin %d mismatched", ErrBadRequest, i)
			}
			p.owned.Set(c.ID(), &ownedCoin{c: c.Clone(), coinKeys: keys[i], selfHeld: true})
			p.saveOwned(c.ID())
			ids[i] = c.ID()
		}
	}
	p.ops.Inc(OpPurchase)
	return ids, nil
}

// callOwner routes a request to a coin's owner: directly for ordinary
// coins, through the indirection layer for owner-anonymous coins.
func (p *Peer) callOwner(c *coin.Coin, msg any) (any, error) {
	if c.Anonymous() {
		if p.indir == nil {
			return nil, errors.New("core: anonymous coin needs indirection servers")
		}
		return p.indir.Send(c.Handle, msg)
	}
	entry, ok := p.cfg.Directory.Lookup(c.Owner)
	if !ok {
		return nil, fmt.Errorf("%w: owner %q", ErrUnknownIdentity, c.Owner)
	}
	return p.call(entry.Addr, msg)
}

// buildTransfer prepares the signed transfer request for a held coin: the
// paper's {{pkCW, CV}skCV}gkV.
func (p *Peer) buildTransfer(hc *heldCoin, payee bus.Address, offer OfferResponse) (TransferRequest, error) {
	hc.mu.Lock()
	binding := hc.binding.Clone()
	hc.mu.Unlock()
	body := coin.TransferBody{
		CoinPub:   hc.c.Pub.Clone(),
		NewHolder: offer.HolderPub.Clone(),
		PrevSeq:   binding.Seq,
		Nonce:     offer.Nonce,
		PayeeAddr: string(payee),
	}
	// One canonical encoding per transfer: both signatures cover the same
	// bytes, and Message() allocates afresh on every call.
	msg := body.Message()
	holderSig, err := p.suite.Sign(hc.holderKeys.Private, msg)
	if err != nil {
		return TransferRequest{}, fmt.Errorf("core: signing transfer body: %w", err)
	}
	gs, err := p.member.Sign(p.suite, msg)
	if err != nil {
		return TransferRequest{}, fmt.Errorf("core: group-signing transfer: %w", err)
	}
	return TransferRequest{
		Body:             body,
		HolderSig:        holderSig,
		GroupSig:         gs,
		PresentedBinding: binding,
	}, nil
}

// transferCommon drives a transfer through the given servicer (the coin's
// owner or the broker).
func (p *Peer) transferCommon(payee bus.Address, id coin.ID, viaBroker bool) error {
	op := "transfer"
	if viaBroker {
		op = "downtime-transfer"
	}
	sp := p.instr.Begin(op)
	err := p.transferInner(payee, id, viaBroker)
	p.instr.End(sp, err)
	return err
}

func (p *Peer) transferInner(payee bus.Address, id coin.ID, viaBroker bool) error {
	hc, ok := p.held.Get(id)
	if !ok {
		return ErrUnknownCoin
	}
	hc.mu.Lock()
	hc.inFlight = true
	hc.mu.Unlock()
	defer func() {
		if cur, still := p.held.Get(id); still {
			cur.mu.Lock()
			cur.inFlight = false
			cur.mu.Unlock()
		}
	}()

	resp, err := p.call(payee, OfferRequest{Value: hc.c.Value})
	if err != nil {
		return fmt.Errorf("core: offering payment: %w", err)
	}
	offer, ok := resp.(OfferResponse)
	if !ok {
		return fmt.Errorf("%w: unexpected offer response %T", ErrBadRequest, resp)
	}
	req, err := p.buildTransfer(hc, payee, offer)
	if err != nil {
		return err
	}

	var raw any
	if viaBroker {
		raw, err = p.callBroker(string(hc.c.Pub), req)
	} else {
		raw, err = p.callOwner(hc.c, req)
	}
	if err != nil {
		return fmt.Errorf("core: transfer request: %w", err)
	}
	tr, ok := raw.(TransferResponse)
	if !ok {
		return fmt.Errorf("%w: unexpected transfer response %T", ErrBadRequest, raw)
	}
	if !tr.OK {
		return fmt.Errorf("%w: %s", ErrPaymentFailed, tr.Reason)
	}

	p.dropHeld(id)
	p.unwatch(id)
	if viaBroker {
		p.ops.Inc(OpDowntimeTransfer)
	}
	return nil
}

// TransferTo spends a held coin by transferring it to the payee via the
// coin's owner (paper Section 4.2, Transfer).
func (p *Peer) TransferTo(payee bus.Address, id coin.ID) error {
	return p.transferCommon(payee, id, false)
}

// TransferViaBroker spends a held coin through the broker when the coin's
// owner is offline (paper Section 4.2, Downtime transfer).
func (p *Peer) TransferViaBroker(payee bus.Address, id coin.ID) error {
	return p.transferCommon(payee, id, true)
}

// buildRenew prepares a signed renewal request for a held coin.
func (p *Peer) buildRenew(hc *heldCoin) (RenewRequest, error) {
	hc.mu.Lock()
	binding := hc.binding.Clone()
	hc.mu.Unlock()
	msg := renewMessage(hc.c.Pub, binding.Seq)
	holderSig, err := p.suite.Sign(hc.holderKeys.Private, msg)
	if err != nil {
		return RenewRequest{}, fmt.Errorf("core: signing renewal: %w", err)
	}
	gs, err := p.member.Sign(p.suite, msg)
	if err != nil {
		return RenewRequest{}, fmt.Errorf("core: group-signing renewal: %w", err)
	}
	return RenewRequest{
		CoinPub:          hc.c.Pub.Clone(),
		Seq:              binding.Seq,
		HolderSig:        holderSig,
		GroupSig:         gs,
		PresentedBinding: binding,
	}, nil
}

// renewCommon drives a renewal through the owner or the broker.
func (p *Peer) renewCommon(id coin.ID, viaBroker bool) error {
	op := "renewal"
	if viaBroker {
		op = "downtime-renewal"
	}
	sp := p.instr.Begin(op)
	err := p.renewInner(id, viaBroker)
	p.instr.End(sp, err)
	return err
}

func (p *Peer) renewInner(id coin.ID, viaBroker bool) error {
	hc, ok := p.held.Get(id)
	if !ok {
		return ErrUnknownCoin
	}

	req, err := p.buildRenew(hc)
	if err != nil {
		return err
	}
	var raw any
	if viaBroker {
		raw, err = p.callBroker(string(hc.c.Pub), req)
	} else {
		raw, err = p.callOwner(hc.c, req)
	}
	if err != nil {
		return fmt.Errorf("core: renewal request: %w", err)
	}
	rr, ok := raw.(RenewResponse)
	if !ok {
		return fmt.Errorf("%w: unexpected renew response %T", ErrBadRequest, raw)
	}
	binding := rr.Binding
	if err := binding.VerifyFor(p.suite, hc.c, p.brokerPubFor(string(hc.c.Pub)), p.cfg.Clock()); err != nil {
		return fmt.Errorf("core: renewal returned bad binding: %w", err)
	}
	hc.mu.Lock()
	if !binding.Holder.Equal(hc.binding.Holder) {
		hc.mu.Unlock()
		return fmt.Errorf("%w: renewal re-bound the coin to a different holder", ErrBadRequest)
	}
	// The watch notification may already have adopted this binding (the
	// owner publishes before responding); only move forward.
	adopted := binding.Seq > hc.binding.Seq
	if adopted {
		hc.binding = binding.Clone()
	}
	hc.mu.Unlock()
	if adopted {
		p.saveHeld(id)
	}
	if viaBroker {
		p.ops.Inc(OpDowntimeRenewal)
	}
	return nil
}

// RenewViaOwner renews a held coin through its owner.
func (p *Peer) RenewViaOwner(id coin.ID) error { return p.renewCommon(id, false) }

// RenewViaBroker renews a held coin through the broker (downtime renewal).
func (p *Peer) RenewViaBroker(id coin.ID) error { return p.renewCommon(id, true) }

// isUnreachable reports whether err means the destination could not be
// reached — directly, or relayed through an indirection server (where the
// transport sentinel is flattened into the remote error text).
func isUnreachable(err error) bool {
	if errors.Is(err, bus.ErrUnreachable) {
		return true
	}
	var remote *bus.RemoteError
	return errors.As(err, &remote) && strings.Contains(remote.Msg, "unreachable")
}

// Renew renews a held coin, preferring the owner and falling back to the
// broker when the owner is unreachable. It reports whether the broker path
// was used.
func (p *Peer) Renew(id coin.ID) (viaBroker bool, err error) {
	err = p.RenewViaOwner(id)
	if err == nil {
		return false, nil
	}
	if isUnreachable(err) {
		return true, p.RenewViaBroker(id)
	}
	return false, err
}

// Deposit redeems a held coin at the broker, crediting payoutRef (paper
// Section 4.2, Deposit). The payout reference is opaque: the broker never
// learns who deposited.
func (p *Peer) Deposit(id coin.ID, payoutRef string) error {
	sp := p.instr.Begin("deposit")
	err := p.deposit(id, payoutRef)
	p.instr.End(sp, err)
	return err
}

func (p *Peer) deposit(id coin.ID, payoutRef string) error {
	req, err := p.depositRequest(id, payoutRef)
	if err != nil {
		return err
	}
	raw, err := p.callBroker(string(req.CoinPub), req)
	if err != nil {
		return fmt.Errorf("core: deposit: %w", err)
	}
	if _, ok := raw.(DepositResponse); !ok {
		return fmt.Errorf("%w: unexpected deposit response %T", ErrBadRequest, raw)
	}
	p.dropHeld(id)
	p.unwatch(id)
	p.ops.Inc(OpDeposit)
	return nil
}

// depositRequest signs a deposit of held coin id to payoutRef with the
// coin's holder key and the peer's group credential.
func (p *Peer) depositRequest(id coin.ID, payoutRef string) (DepositRequest, error) {
	hc, ok := p.held.Get(id)
	if !ok {
		return DepositRequest{}, ErrUnknownCoin
	}
	hc.mu.Lock()
	binding := hc.binding.Clone()
	hc.mu.Unlock()

	msg := depositMessage(hc.c.Pub, payoutRef, binding.Seq)
	holderSig, err := p.suite.Sign(hc.holderKeys.Private, msg)
	if err != nil {
		return DepositRequest{}, fmt.Errorf("core: signing deposit: %w", err)
	}
	gs, err := p.member.Sign(p.suite, msg)
	if err != nil {
		return DepositRequest{}, fmt.Errorf("core: group-signing deposit: %w", err)
	}
	return DepositRequest{
		CoinPub:          hc.c.Pub.Clone(),
		PayoutRef:        payoutRef,
		HolderSig:        holderSig,
		GroupSig:         gs,
		PresentedBinding: binding,
	}, nil
}

// DepositMany redeems several held coins, one BatchDepositRequest per 64
// coins (and, under federation, per shard): the broker verifies each
// request's group with one signature-batch fan-out and commits it under one
// atomic journal append. Outcomes come back positionally — outcomes[i] is nil when ids[i] was
// credited, and unwraps to the broker's protocol sentinel otherwise. The
// call-level error covers transport failure or a malformed response only.
func (p *Peer) DepositMany(ids []coin.ID, payoutRef string) ([]error, error) {
	sp := p.instr.Begin("deposit-many")
	outcomes, err := p.depositMany(ids, payoutRef)
	p.instr.End(sp, err)
	return outcomes, err
}

func (p *Peer) depositMany(ids []coin.ID, payoutRef string) ([]error, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	reqs := make([]DepositRequest, len(ids))
	for i, id := range ids {
		req, err := p.depositRequest(id, payoutRef)
		if err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
		}
		reqs[i] = req
	}
	// Under federation the coins home on different shards: group the batch
	// by shard, one request per shard leader and at most maxDepositBatch
	// entries, and stitch the outcomes back positionally. Unfederated,
	// everything lands in shard 0.
	groups := map[int][]int{}
	for i := range reqs {
		shard := p.shardOf(string(reqs[i].CoinPub))
		groups[shard] = append(groups[shard], i)
	}
	var chunks [][]int
	for _, idxs := range groups {
		for len(idxs) > maxDepositBatch {
			chunks = append(chunks, idxs[:maxDepositBatch])
			idxs = idxs[maxDepositBatch:]
		}
		chunks = append(chunks, idxs)
	}
	outcomes := make([]error, len(ids))
	for _, idxs := range chunks {
		greqs := make([]DepositRequest, len(idxs))
		for j, i := range idxs {
			greqs[j] = reqs[i]
		}
		raw, err := p.callBroker(string(greqs[0].CoinPub), BatchDepositRequest{Deposits: greqs})
		if err != nil {
			return nil, fmt.Errorf("core: batch deposit: %w", err)
		}
		br, ok := raw.(BatchDepositResponse)
		if !ok || len(br.Results) != len(idxs) {
			return nil, fmt.Errorf("%w: unexpected batch-deposit response %T", ErrBadRequest, raw)
		}
		for j, r := range br.Results {
			i := idxs[j]
			if r.ErrCode != "" || r.ErrMsg != "" {
				// Rebuild the remote error the way a direct call would have
				// surfaced it, so errors.Is on protocol sentinels keeps
				// working per entry.
				outcomes[i] = &bus.RemoteError{Msg: r.ErrMsg, Code: r.ErrCode}
				continue
			}
			p.dropHeld(ids[i])
			p.unwatch(ids[i])
			p.ops.Inc(OpDeposit)
		}
	}
	return outcomes, nil
}

// DepositTwice deposits a held coin and then replays the identical wire
// request — the double spend any holder can always attempt, since nothing
// stops it from re-sending bytes it already signed. Like ForgeRebind and
// ForgeDoubleIssue this is an attack helper for tests and the load
// harness: a correct broker accepts the first deposit, rejects the replay
// with ErrAlreadyDeposited, and credits the payout reference exactly once.
// The first deposit's error (if any) is returned as first with no replay
// attempted; otherwise replay carries the broker's verdict on the copy.
func (p *Peer) DepositTwice(id coin.ID, payoutRef string) (first, replay error) {
	req, err := p.depositRequest(id, payoutRef)
	if err != nil {
		return err, nil
	}
	if first = p.Deposit(id, payoutRef); first != nil {
		return first, nil
	}
	_, replay = p.callBroker(string(req.CoinPub), req)
	return nil, replay
}

// Sync performs the proactive owner synchronization (paper Section 4.2,
// Sync): the broker returns the bindings it maintained for this owner's
// coins during downtime.
func (p *Peer) Sync() error {
	sp := p.instr.Begin("sync")
	err := p.syncWithBroker()
	p.instr.End(sp, err)
	return err
}

func (p *Peer) syncWithBroker() error {
	// Every shard may have maintained bindings for this owner's coins, so
	// federated sync fans out to every shard leader and merges. Unfederated,
	// the loop is a single call to the configured broker.
	shards := 1
	if p.cfg.Router != nil {
		shards = p.cfg.Router.NumShards()
	}
	var bindings []coin.Binding
	for shard := 0; shard < shards; shard++ {
		nonce := p.randBytes(16)
		sigBytes, err := p.suite.Sign(p.keys.Private, syncMessage(p.cfg.ID, nonce))
		if err != nil {
			return fmt.Errorf("core: signing sync: %w", err)
		}
		raw, err := p.callShard(shard, SyncRequest{Identity: p.cfg.ID, Nonce: nonce, Sig: sigBytes})
		if err != nil {
			return fmt.Errorf("core: sync: %w", err)
		}
		sr, ok := raw.(SyncResponse)
		if !ok {
			return fmt.Errorf("%w: unexpected sync response %T", ErrBadRequest, raw)
		}
		bindings = append(bindings, sr.Bindings...)
	}
	now := p.cfg.Clock()
	for i := range bindings {
		binding := &bindings[i]
		oc, owns := p.owned.Get(coin.ID(binding.CoinPub))
		if !owns {
			continue
		}
		if !binding.ByBroker || binding.VerifyFor(p.suite, oc.c, p.brokerPubFor(string(binding.CoinPub)), now) != nil {
			continue
		}
		oc.mu.Lock()
		adopted := oc.binding == nil || binding.Seq > oc.binding.Seq
		if adopted {
			oc.binding = binding.Clone()
			oc.selfHeld = false
		}
		oc.dirty = false
		oc.mu.Unlock()
		if adopted {
			p.saveOwned(coin.ID(binding.CoinPub))
		}
	}
	p.ops.Inc(OpSync)
	return nil
}
