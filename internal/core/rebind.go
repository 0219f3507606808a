package core

import (
	"errors"
	"fmt"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
)

// Re-binding: the one decision behind transfers and renewals (paper Section
// 4.2). The owner services them while online; during its downtime the
// broker services the same requests through the same decision, signing
// with its own key. Each party's shell (Peer.serviceOwned,
// Broker.serviceDowntime) wraps rebind in its own locking, catch-up,
// journaling and accounting; deliver and publish are the steps both shells
// share around it.

// errDeliveryFailed marks a re-binding the payee did not accept: a transfer
// answers it with TransferResponse{OK: false}, an issue returns it.
var errDeliveryFailed = errors.New("payee delivery failed")

// rebindReq is a transfer or renewal request reduced to what the decision
// and the shells read. A renewal is a re-binding to the same holder, with a
// body carrying only the coin and the cited seq. The dispatchers build it
// before taking the coin's service lock: the signed bytes depend only on
// the request, and all work done under that lock serializes every other
// request for the coin.
type rebindReq struct {
	renewal   bool
	body      coin.TransferBody
	msg       []byte // the bytes the holder and the group signature cover
	holderSig []byte
	groupSig  groupsig.Signature
	presented *coin.Binding
}

func transferReq(m *TransferRequest) rebindReq {
	return rebindReq{
		body:      m.Body,
		msg:       m.Body.Message(),
		holderSig: m.HolderSig,
		groupSig:  m.GroupSig,
		presented: m.PresentedBinding,
	}
}

func renewReq(m *RenewRequest) rebindReq {
	return rebindReq{
		renewal:   true,
		body:      coin.TransferBody{CoinPub: m.CoinPub, PrevSeq: m.Seq},
		msg:       renewMessage(m.CoinPub, m.Seq),
		holderSig: m.HolderSig,
		groupSig:  m.GroupSig,
		presented: m.PresentedBinding,
	}
}

// rebind decides a re-binding of coin c away from its current binding cur:
// the request must cite cur's seq and carry the current holder's signature
// and a valid group signature. It returns the next binding, signed with key
// (the coin key for the owner; the broker key, with byBroker, during owner
// downtime), and the relinquishment proof that justifies it. It takes no
// lock and touches no store, journal or network.
func rebind(suite sig.Suite, gsv *groupsig.Verifier, groupPub sig.PublicKey, key sig.PrivateKey, byBroker bool,
	c *coin.Coin, cur *coin.Binding, r rebindReq, now time.Time, period time.Duration) (*coin.Binding, RelinquishProof, error) {
	if r.body.PrevSeq != cur.Seq {
		return nil, RelinquishProof{}, fmt.Errorf("%w: request cites seq %d, current is %d", ErrStaleBinding, r.body.PrevSeq, cur.Seq)
	}
	if err := verifyHolderAndGroup(suite, gsv, groupPub, cur.Holder, r.msg, r.holderSig, r.groupSig); err != nil {
		return nil, RelinquishProof{}, err
	}
	holder, body := r.body.NewHolder, r.body
	if r.renewal {
		holder, body = cur.Holder, coin.TransferBody{CoinPub: c.Pub.Clone(), PrevSeq: cur.Seq}
	}
	next := &coin.Binding{
		CoinPub:  c.Pub.Clone(),
		Holder:   holder.Clone(),
		Seq:      cur.Seq + 1,
		Expiry:   renewedExpiry(cur.Expiry, now, period, r.renewal),
		ByBroker: byBroker,
	}
	proof := RelinquishProof{Renewal: r.renewal, Body: body, HolderSig: r.holderSig, PrevHold: cur.Holder.Clone()}
	var err error
	if next.Sig, err = suite.Sign(key, next.Message()); err != nil {
		return nil, RelinquishProof{}, fmt.Errorf("core: signing binding: %w", err)
	}
	return next, proof, nil
}

// renewedExpiry computes a binding's expiry. Renewals extend by the
// renewal period; transfers preserve the current expiry — otherwise a
// circulating coin would never need renewal and the paper's renewal load
// could not exist — refreshing it only when already past, so a coin that
// sat out its expiry with an offline holder revives on its next hop instead
// of wedging.
func renewedExpiry(current int64, now time.Time, period time.Duration, renewal bool) int64 {
	if renewal || current <= now.Unix() {
		return now.Add(period).Unix()
	}
	return current
}

// deliver hands a re-bound coin to the payee: it answers the payee's
// ownership challenge (its offer nonce) with challenger and calls the payee
// with d. A payee that does not accept yields errDeliveryFailed wrapping
// its error.
func deliver(call func(bus.Address, any) (any, error), suite sig.Suite, challenger sig.PrivateKey, payee bus.Address, nonce []byte, d DeliverRequest) error {
	var err error
	if d.ChallengeSig, err = suite.Sign(challenger, coin.ChallengeMessage(d.Coin.Pub, nonce)); err != nil {
		return fmt.Errorf("core: signing challenge: %w", err)
	}
	if _, err := call(payee, d); err != nil {
		return fmt.Errorf("%w: %w", errDeliveryFailed, err)
	}
	return nil
}

// undelivered answers a transfer whose delivery failed: the payee's
// refusal is the holder's news, not the servicer's error, so it travels as
// TransferResponse{OK: false}. Any other error passes through.
func undelivered(err error) (any, error) {
	if errors.Is(err, errDeliveryFailed) {
		return TransferResponse{OK: false, Reason: err.Error()}, nil
	}
	return nil, err
}

// publish writes a binding to the public binding list under keys: the coin
// key for its owner (only the owner knows it — the DHT's write ACL), the
// broker key for the broker, a trusted writer, which keeps real-time
// detection working through owner downtime (paper Section 5.1). Best
// effort: a failed publish degrades detection, not the payment. Without a
// DHT client it does nothing.
func publish(dhtc *dht.Client, suite sig.Suite, keys sig.KeyPair, binding *coin.Binding) {
	if dhtc == nil {
		return
	}
	rec, err := dht.SignRecord(suite, keys, dht.KeyFor(binding.CoinPub), binding.Seq, binding.Marshal())
	if err != nil {
		return
	}
	_ = dhtc.Put(rec)
}
