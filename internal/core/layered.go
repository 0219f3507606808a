package core

import (
	"fmt"

	"whopay/internal/coin"
	"whopay/internal/groupsig"
	"whopay/internal/layered"
	"whopay/internal/sig"
)

// Layered-coin integration (paper Section 7): hops happen entirely offline
// via layered.Hop; the broker redeems the chain, which is also the moment
// offline double-spend forks are caught — exactly the trade-off the paper
// describes ("double spending is easier to commit and harder to defend
// than in online transfer systems. It has no real-time double spending
// detection.").

// MaxCoinLayers is the broker's accepted layer bound (paper: "a maximum
// number of layers can be imposed").
const MaxCoinLayers = layered.DefaultMaxLayers

// LayeredDepositRequest redeems a layered coin: the base coin and binding,
// the offline hop chain, and the chain head's signatures over the deposit.
type LayeredDepositRequest struct {
	LC        layered.Coin
	PayoutRef string
	HolderSig []byte // by the chain head's holder key
	GroupSig  groupsig.Signature
}

func layeredDepositMessage(coinPub sig.PublicKey, payoutRef string, layers int) []byte {
	out := []byte("whopay/msg/layered-deposit/1")
	out = appendBytes(out, coinPub)
	out = appendBytes(out, []byte(payoutRef))
	out = append(out, byte(layers))
	return out
}

// handleLayeredDeposit verifies the whole offline chain and credits the
// chain head. A second deposit of any fork of the same coin is rejected
// and every layer's group signature is escrowed for the judge: offline
// double spending is caught here, at redemption, with the cheater
// identifiable.
func (b *Broker) handleLayeredDeposit(m LayeredDepositRequest) (any, error) {
	lc := m.LC
	c, ok := b.coins.Get(lc.Base.ID())
	prior, _ := b.deposited.Get(lc.Base.ID())
	if !ok {
		return nil, ErrUnknownCoin
	}
	if err := lc.Verify(b.suite, b.keys.Public, b.cfg.GroupPub, MaxCoinLayers); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The chain must be anchored at the coin's authoritative binding.
	if _, err := b.currentBinding(c, &lc.Binding); err != nil {
		return nil, err
	}
	msg := layeredDepositMessage(c.Pub, m.PayoutRef, len(lc.Layers))
	head := lc.CurrentHolder()
	if err := verifyHolderAndGroup(b.suite, b.gsv, b.cfg.GroupPub, head, msg, m.HolderSig, m.GroupSig); err != nil {
		return nil, err
	}

	if prior != nil {
		// A fork of an already-redeemed coin: escrow every layer's
		// group signature — the judge opens them all and finds the
		// fork point's signer.
		evidence := [][2]any{{msg, m.GroupSig}}
		for _, step := range lc.CollapseProofs() {
			evidence = append(evidence, [2]any{step.Message, step.GroupSig})
		}
		b.recordCase(FraudCase{
			Kind:      "layered-double-spend",
			CoinID:    c.ID(),
			Verdict:   "fork of a redeemed layered coin; layer signatures escrowed for the judge",
			GroupSigs: evidence,
			Bindings:  []coin.Binding{lc.Binding},
		})
		return nil, ErrAlreadyDeposited
	}

	// Commit: a racing fork of the same chain loses the insert.
	d := []depositCommit{{c: c, rec: &depositRecord{
		binding:   lc.Binding.Clone(),
		groupSig:  m.GroupSig,
		payoutRef: m.PayoutRef,
		when:      b.cfg.Clock(),
	}}}
	b.commitDeposits(d)
	if !d[0].ok {
		return nil, ErrAlreadyDeposited
	}
	return DepositResponse{Amount: c.Value}, nil
}

// ExportLayered converts a held coin into a layered coin ready for offline
// hops. The peer gives up its held entry: from now on the chain IS the
// coin, and whoever holds the chain head's key controls it.
func (p *Peer) ExportLayered(id coin.ID) (*layered.Coin, sig.KeyPair, error) {
	hc, ok := p.dropHeld(id)
	if !ok {
		return nil, sig.KeyPair{}, ErrUnknownCoin
	}
	hc.mu.Lock()
	lc := &layered.Coin{Base: *hc.c.Clone(), Binding: *hc.binding.Clone()}
	hc.mu.Unlock()
	keys := hc.holderKeys
	p.unwatch(id)
	return lc, keys, nil
}

// DepositLayered redeems a layered coin at the broker, crediting
// payoutRef. headPriv is the private half of the chain head's key.
func (p *Peer) DepositLayered(lc *layered.Coin, headPriv sig.PrivateKey, payoutRef string) error {
	msg := layeredDepositMessage(lc.Base.Pub, payoutRef, len(lc.Layers))
	holderSig, err := p.suite.Sign(headPriv, msg)
	if err != nil {
		return fmt.Errorf("core: signing layered deposit: %w", err)
	}
	gs, err := p.member.Sign(p.suite, msg)
	if err != nil {
		return fmt.Errorf("core: group-signing layered deposit: %w", err)
	}
	raw, err := p.callBroker(string(lc.Base.ID()), LayeredDepositRequest{
		LC:        *lc,
		PayoutRef: payoutRef,
		HolderSig: holderSig,
		GroupSig:  gs,
	})
	if err != nil {
		return fmt.Errorf("core: layered deposit: %w", err)
	}
	if _, ok := raw.(DepositResponse); !ok {
		return fmt.Errorf("%w: unexpected layered deposit response %T", ErrBadRequest, raw)
	}
	p.ops.Inc(OpDeposit)
	return nil
}

// GroupMember exposes the peer's group member key for offline layered hops
// (layered.Hop needs it to sign fairness layers).
func (p *Peer) GroupMember() *groupsig.MemberKey { return p.member }

// Suite exposes the peer's crypto suite for offline layered hops.
func (p *Peer) Suite() sig.Suite { return p.suite }
