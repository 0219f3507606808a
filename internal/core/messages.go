package core

import (
	"encoding/binary"

	"whopay/internal/coin"
	"whopay/internal/groupsig"
	"whopay/internal/payword"
	"whopay/internal/sig"
)

// Protocol messages. All are exported value types so the same structs travel
// over the in-memory bus and, through their wire codecs (wire.go), the TCP
// transport.

// PurchaseRequest buys a coin from the broker (paper Section 4.2,
// Purchase). The buyer identifies itself — even for owner-anonymous coins
// the broker knows who purchased (it is paid out of band); anonymity
// concerns *transactions*, not the purchase itself.
type PurchaseRequest struct {
	Buyer     string
	CoinPub   sig.PublicKey
	Handle    []byte // non-nil mints an owner-anonymous coin (Section 5.2)
	Value     int64
	Anonymous bool
	Sig       []byte // by the buyer's identity key over purchaseMessage
}

func purchaseMessage(buyer string, coinPub sig.PublicKey, handle []byte, value int64, anonymous bool) []byte {
	out := []byte("whopay/msg/purchase/1")
	out = appendBytes(out, []byte(buyer))
	out = appendBytes(out, coinPub)
	out = appendBytes(out, handle)
	out = binary.BigEndian.AppendUint64(out, uint64(value))
	if anonymous {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// PurchaseResponse returns the freshly minted coin.
type PurchaseResponse struct {
	Coin coin.Coin
}

// BatchPurchaseRequest buys several coins under one authorization (paper
// Section 4.2: "It should be straightforward to modify this procedure to
// purchase coins in batch"). One signature covers all coin keys.
type BatchPurchaseRequest struct {
	Buyer    string
	CoinPubs []sig.PublicKey
	Value    int64 // per coin
	Sig      []byte
}

func batchPurchaseMessage(buyer string, coinPubs []sig.PublicKey, value int64) []byte {
	out := []byte("whopay/msg/batch-purchase/1")
	out = appendBytes(out, []byte(buyer))
	out = binary.BigEndian.AppendUint64(out, uint64(len(coinPubs)))
	for _, pub := range coinPubs {
		out = appendBytes(out, pub)
	}
	out = binary.BigEndian.AppendUint64(out, uint64(value))
	return out
}

// BatchPurchaseResponse returns the minted coins, in request order.
type BatchPurchaseResponse struct {
	Coins []coin.Coin
}

// OfferRequest opens a payment: payer → payee, "I will pay you one coin of
// this value". The payee answers with a fresh holder key and a challenge
// nonce (paper: "V generates a random public/private key pair ... and sends
// pkCV to U"; the nonce implements the payee's ownership challenge without
// an extra round trip — it travels payee → payer → owner, who signs it).
type OfferRequest struct {
	Value int64
}

// OfferResponse carries the payee's fresh holder key and challenge nonce.
type OfferResponse struct {
	HolderPub sig.PublicKey
	Nonce     []byte
}

// DeliverRequest completes a payment: owner (or broker) → payee, carrying
// the broker-signed coin, the new binding, and the answer to the payee's
// ownership challenge. GroupSig is set on owner-anonymous issues (Section
// 5.2: issuers sign with their group private keys).
type DeliverRequest struct {
	Coin         coin.Coin
	Binding      coin.Binding
	ChallengeSig []byte
	Issue        bool
	GroupSig     *groupsig.Signature
}

// DeliverResponse acknowledges acceptance.
type DeliverResponse struct{}

// TransferRequest asks a coin's owner (or the broker, during owner
// downtime) to re-bind the coin to a new holder. It is the paper's
// {{pkCW, CV}skCV}gkV: the body signed by the current holder key and a
// group signature for fairness. PresentedBinding is the holder's latest
// signed binding — evidence the owner or broker uses to catch up when its
// local state is stale ("flavor one" verification).
type TransferRequest struct {
	Body             coin.TransferBody
	HolderSig        []byte
	GroupSig         groupsig.Signature
	PresentedBinding *coin.Binding
}

// TransferResponse reports the outcome. On failure (e.g. the payee went
// away between offer and delivery) no binding moved: the servicer delivers
// before committing, so the payer still holds the coin under its existing
// binding and can simply retry. (A broker servicer keeps the holder's
// signed relinquishment all the same; see Broker.serviceDowntime.)
type TransferResponse struct {
	OK     bool
	Reason string
}

// RenewRequest extends a coin's expiry (paper Section 4.2, Renewal /
// Downtime renewal). Signed by the current holder key plus a group
// signature.
type RenewRequest struct {
	CoinPub          sig.PublicKey
	Seq              uint64
	HolderSig        []byte
	GroupSig         groupsig.Signature
	PresentedBinding *coin.Binding
}

func renewMessage(coinPub sig.PublicKey, seq uint64) []byte {
	out := []byte("whopay/msg/renew/1")
	out = appendBytes(out, coinPub)
	out = binary.BigEndian.AppendUint64(out, seq)
	return out
}

// RenewResponse returns the refreshed binding.
type RenewResponse struct {
	Binding coin.Binding
}

// DepositRequest redeems a coin at the broker. PayoutRef is an opaque
// payout reference (not an identity): the broker credits it without
// learning who the holder is.
type DepositRequest struct {
	CoinPub          sig.PublicKey
	PayoutRef        string
	HolderSig        []byte
	GroupSig         groupsig.Signature
	PresentedBinding *coin.Binding
}

func depositMessage(coinPub sig.PublicKey, payoutRef string, seq uint64) []byte {
	out := []byte("whopay/msg/deposit/1")
	out = appendBytes(out, coinPub)
	out = appendBytes(out, []byte(payoutRef))
	out = binary.BigEndian.AppendUint64(out, seq)
	return out
}

// DepositResponse confirms the credited amount.
type DepositResponse struct {
	Amount int64
}

// SyncRequest synchronizes an owner's binding state with the broker after
// rejoin (paper Section 4.2, Sync). The signature over the nonce is the
// challenge-response identity proof.
type SyncRequest struct {
	Identity string
	Nonce    []byte
	Sig      []byte
}

func syncMessage(identity string, nonce []byte) []byte {
	out := []byte("whopay/msg/sync/1")
	out = appendBytes(out, []byte(identity))
	out = appendBytes(out, nonce)
	return out
}

// SyncResponse returns the broker-maintained bindings for the owner's
// coins touched during its downtime.
type SyncResponse struct {
	Bindings []coin.Binding
}

// FraudReport is a holder's alarm: the public binding list shows the coin
// re-bound away from it without its consent. MyBinding is the reporter's
// signed binding; Observed is the conflicting one seen in the DHT.
type FraudReport struct {
	CoinPub   sig.PublicKey
	MyBinding coin.Binding
	Observed  coin.Binding
	GroupSig  groupsig.Signature // over the report, so the victim stays anonymous but accountable
}

func fraudReportMessage(coinPub sig.PublicKey, mine, observed *coin.Binding) []byte {
	out := []byte("whopay/msg/fraud/1")
	out = appendBytes(out, coinPub)
	out = appendBytes(out, mine.Message())
	out = appendBytes(out, observed.Message())
	return out
}

// FraudResponse acknowledges a report and states the broker's verdict so
// far.
type FraudResponse struct {
	CaseID   uint64
	Verdict  string
	Punished string // owner identity frozen, if any
}

// DisputeRequest asks a coin's owner to produce the relinquishment proofs
// covering sequence numbers (FromSeq, ToSeq] — the audit-trail walk the
// paper relies on: "the audit trails of peers and the broker ensure
// [fraud] will be detected and the culprits identified and punished".
type DisputeRequest struct {
	CoinPub sig.PublicKey
	FromSeq uint64
	ToSeq   uint64
}

// RelinquishProof is one audit-trail entry: the holder-signed request that
// authorized a re-binding. For renewals the signed message is the renewal
// request (holder unchanged); for transfers it is the transfer body.
type RelinquishProof struct {
	Renewal   bool
	Body      coin.TransferBody
	HolderSig []byte
	PrevHold  sig.PublicKey // the holder key that authorized (binding at Body.PrevSeq)
}

// DisputeResponse returns the owner's audit trail for the disputed range.
type DisputeResponse struct {
	Proofs []RelinquishProof
}

// ChannelOpenRequest opens a micropayment channel: payer → vendor,
// carrying a signed PayWord commitment (the paper's §7 aggregation layer).
// The vendor then accepts per-unit payments against the hash chain with no
// broker involvement and settles the accumulated balance into one WhoPay
// coin when the credit window closes. Lottery switches the channel to
// probabilistic settlement (Rivest's lottery tickets): every payment also
// carries a ticket worth Prize units with probability 1/WinDivisor, and
// only winning tickets accrue balance.
type ChannelOpenRequest struct {
	Commitment payword.Commitment
	Lottery    bool
	WinDivisor uint32
	Prize      uint32
}

// ChannelOpenResponse acknowledges the channel. Nonce is the vendor's draw
// nonce for the first lottery ticket (empty on plain channels).
type ChannelOpenResponse struct {
	Nonce []byte
}

// ChannelPayRequest streams one channel payment. Payment.Root identifies
// the channel; the payword hash walk proves every unit since the last one
// the vendor saw, so a dropped payment self-heals — the next index pays the
// gap. Ticket rides along on lottery channels.
type ChannelPayRequest struct {
	Payment payword.Payment
	Ticket  *payword.Ticket
}

// ChannelPayResponse reports the vendor's view: the balance accrued so far,
// whether the ticket won, and the draw nonce for the next ticket.
type ChannelPayResponse struct {
	Owed  int64
	Won   bool
	Nonce []byte
}

// ChannelCloseRequest settles a channel: the payer has issued a WhoPay coin
// (CoinID) to the vendor covering the outstanding balance and asks the
// vendor to credit it against the channel. Final also tears the channel
// down; otherwise the window reopens with the balance cleared.
type ChannelCloseRequest struct {
	Root   payword.Word
	CoinID coin.ID
	Final  bool
}

// ChannelCloseResponse confirms the amount settled.
type ChannelCloseResponse struct {
	Settled int64
}

// BatchDepositRequest redeems several coins in one request. The broker
// verifies the whole group in one signature-batch fan-out and commits it in
// one WAL append; each deposit still succeeds or fails alone.
type BatchDepositRequest struct {
	Deposits []DepositRequest
}

// BatchDepositResult is one deposit's outcome: Amount on success, or the
// wire error code and message the same lone DepositRequest would have
// produced.
type BatchDepositResult struct {
	Amount  int64
	ErrCode string
	ErrMsg  string
}

// BatchDepositResponse carries the per-deposit outcomes, in request order.
type BatchDepositResponse struct {
	Results []BatchDepositResult
}

// appendBytes appends a uvarint length prefix followed by the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
