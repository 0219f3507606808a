package core

import (
	"fmt"
	"sync"

	"whopay/internal/coin"
	"whopay/internal/dht"
	"whopay/internal/groupsig"
	"whopay/internal/indirect"
	"whopay/internal/layered"
	"whopay/internal/payword"
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// Fixed-layout wire codecs (internal/wire) for every protocol message in
// messages.go, judgeserver.go, and layered.go. Tags are the wire contract:
// stable across versions, assigned here, never reused.
const (
	tagPurchaseRequest       = 1
	tagPurchaseResponse      = 2
	tagBatchPurchaseRequest  = 3
	tagBatchPurchaseResponse = 4
	tagEnrollRequest         = 5
	tagEnrollResponse        = 6
	tagRefillRequest         = 7
	tagRefillResponse        = 8
	tagOfferRequest          = 9
	tagOfferResponse         = 10
	tagDeliverRequest        = 11
	tagDeliverResponse       = 12
	tagTransferRequest       = 13
	tagTransferResponse      = 14
	tagRenewRequest          = 15
	tagRenewResponse         = 16
	tagDepositRequest        = 17
	tagDepositResponse       = 18
	tagLayeredDepositRequest = 19
	tagSyncRequest           = 20
	tagSyncResponse          = 21
	tagFraudReport           = 22
	tagFraudResponse         = 23
	tagDisputeRequest        = 24
	tagDisputeResponse       = 25
	tagRelinquishProof       = 26
	tagChannelOpenRequest    = 27
	tagChannelOpenResponse   = 28
	tagChannelPayRequest     = 29
	tagChannelPayResponse    = 30
	tagChannelCloseRequest   = 31
	tagChannelCloseResponse  = 32
	tagBatchDepositRequest   = 33
	tagBatchDepositResponse  = 34
	tagSettleRequest         = 35
	tagSettleResponse        = 36
)

var wireCodecsOnce sync.Once

// RegisterWireTypes registers the binary codecs of every protocol message —
// the core protocol plus the DHT and indirection layers — with the wire
// registry. Call it before using tcpbus endpoints; the in-memory bus does
// not need it. Idempotent.
func RegisterWireTypes() {
	wireCodecsOnce.Do(func() {
		registerCoreWireCodecs()
		dht.RegisterWireCodecs()
		indirect.RegisterWireCodecs()
	})
}

// decodeKey reads a length-prefixed public key.
func decodeKey(d *wire.Decoder) (sig.PublicKey, error) {
	raw, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return sig.PublicKey(raw), nil
}

func appendKey(k *sig.PublicKey, dst []byte) []byte { return wire.AppendBytes(dst, *k) }

func registerCoreWireCodecs() {
	wire.Register(tagPurchaseRequest, "core.PurchaseRequest", PurchaseRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(PurchaseRequest)
			dst = wire.AppendString(dst, m.Buyer)
			dst = wire.AppendBytes(dst, m.CoinPub)
			dst = wire.AppendBytes(dst, m.Handle)
			dst = wire.AppendInt(dst, m.Value)
			dst = wire.AppendBool(dst, m.Anonymous)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m PurchaseRequest
			var err error
			if m.Buyer, err = d.String(); err != nil {
				return nil, err
			}
			if m.CoinPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.Handle, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.Value, err = d.Int(); err != nil {
				return nil, err
			}
			if m.Anonymous, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagPurchaseResponse, "core.PurchaseResponse", PurchaseResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(PurchaseResponse)
			return m.Coin.AppendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			c, err := coin.DecodeWireCoin(d)
			if err != nil {
				return nil, err
			}
			return PurchaseResponse{Coin: c}, nil
		})
	wire.Register(tagBatchPurchaseRequest, "core.BatchPurchaseRequest", BatchPurchaseRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(BatchPurchaseRequest)
			dst = wire.AppendString(dst, m.Buyer)
			dst = wire.AppendList(dst, m.CoinPubs, appendKey)
			dst = wire.AppendInt(dst, m.Value)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m BatchPurchaseRequest
			var err error
			if m.Buyer, err = d.String(); err != nil {
				return nil, err
			}
			if m.CoinPubs, err = wire.DecodeList(d, decodeKey); err != nil {
				return nil, err
			}
			if m.Value, err = d.Int(); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagBatchPurchaseResponse, "core.BatchPurchaseResponse", BatchPurchaseResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(BatchPurchaseResponse).Coins, (*coin.Coin).AppendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			coins, err := wire.DecodeList(d, coin.DecodeWireCoin)
			if err != nil {
				return nil, err
			}
			return BatchPurchaseResponse{Coins: coins}, nil
		})
	wire.Register(tagEnrollRequest, "core.EnrollRequest", EnrollRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(EnrollRequest)
			dst = wire.AppendString(dst, m.Identity)
			dst = wire.AppendList(dst, m.Keys, appendKey)
			dst = wire.AppendBytes(dst, m.Pub)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m EnrollRequest
			var err error
			if m.Identity, err = d.String(); err != nil {
				return nil, err
			}
			if m.Keys, err = wire.DecodeList(d, decodeKey); err != nil {
				return nil, err
			}
			if m.Pub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagEnrollResponse, "core.EnrollResponse", EnrollResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(EnrollResponse)
			dst = wire.AppendBytes(dst, m.GroupPub)
			return wire.AppendList(dst, m.Credentials, (*groupsig.Credential).AppendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m EnrollResponse
			var err error
			if m.GroupPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.Credentials, err = wire.DecodeList(d, groupsig.DecodeWireCredential); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagRefillRequest, "core.RefillRequest", RefillRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(RefillRequest)
			dst = wire.AppendString(dst, m.Identity)
			dst = wire.AppendList(dst, m.Keys, appendKey)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m RefillRequest
			var err error
			if m.Identity, err = d.String(); err != nil {
				return nil, err
			}
			if m.Keys, err = wire.DecodeList(d, decodeKey); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagRefillResponse, "core.RefillResponse", RefillResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(RefillResponse).Credentials, (*groupsig.Credential).AppendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			creds, err := wire.DecodeList(d, groupsig.DecodeWireCredential)
			if err != nil {
				return nil, err
			}
			return RefillResponse{Credentials: creds}, nil
		})
	wire.Register(tagOfferRequest, "core.OfferRequest", OfferRequest{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendInt(dst, v.(OfferRequest).Value), nil
		},
		func(d *wire.Decoder) (any, error) {
			val, err := d.Int()
			if err != nil {
				return nil, err
			}
			return OfferRequest{Value: val}, nil
		})
	wire.Register(tagOfferResponse, "core.OfferResponse", OfferResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(OfferResponse)
			dst = wire.AppendBytes(dst, m.HolderPub)
			dst = wire.AppendBytes(dst, m.Nonce)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m OfferResponse
			var err error
			if m.HolderPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.Nonce, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDeliverRequest, "core.DeliverRequest", DeliverRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(DeliverRequest)
			dst = m.Coin.AppendWire(dst)
			dst = m.Binding.AppendWire(dst)
			dst = wire.AppendBytes(dst, m.ChallengeSig)
			dst = wire.AppendBool(dst, m.Issue)
			dst = groupsig.AppendWireSignaturePtr(dst, m.GroupSig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m DeliverRequest
			var err error
			if m.Coin, err = coin.DecodeWireCoin(d); err != nil {
				return nil, err
			}
			if m.Binding, err = coin.DecodeWireBinding(d); err != nil {
				return nil, err
			}
			if m.ChallengeSig, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.Issue, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.GroupSig, err = groupsig.DecodeWireSignaturePtr(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDeliverResponse, "core.DeliverResponse", DeliverResponse{},
		func(dst []byte, v any) ([]byte, error) { return dst, nil },
		func(d *wire.Decoder) (any, error) { return DeliverResponse{}, nil })
	wire.Register(tagTransferRequest, "core.TransferRequest", TransferRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(TransferRequest)
			dst = m.Body.AppendWire(dst)
			dst = wire.AppendBytes(dst, m.HolderSig)
			dst = m.GroupSig.AppendWire(dst)
			dst = coin.AppendWireBindingPtr(dst, m.PresentedBinding)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m TransferRequest
			var err error
			if m.Body, err = coin.DecodeWireTransferBody(d); err != nil {
				return nil, err
			}
			if m.HolderSig, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
				return nil, err
			}
			if m.PresentedBinding, err = coin.DecodeWireBindingPtr(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagTransferResponse, "core.TransferResponse", TransferResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(TransferResponse)
			dst = wire.AppendBool(dst, m.OK)
			dst = wire.AppendString(dst, m.Reason)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m TransferResponse
			var err error
			if m.OK, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.Reason, err = d.String(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagRenewRequest, "core.RenewRequest", RenewRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(RenewRequest)
			dst = wire.AppendBytes(dst, m.CoinPub)
			dst = wire.AppendU64(dst, m.Seq)
			dst = wire.AppendBytes(dst, m.HolderSig)
			dst = m.GroupSig.AppendWire(dst)
			dst = coin.AppendWireBindingPtr(dst, m.PresentedBinding)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m RenewRequest
			var err error
			if m.CoinPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.Seq, err = d.U64(); err != nil {
				return nil, err
			}
			if m.HolderSig, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
				return nil, err
			}
			if m.PresentedBinding, err = coin.DecodeWireBindingPtr(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagRenewResponse, "core.RenewResponse", RenewResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(RenewResponse)
			return m.Binding.AppendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			b, err := coin.DecodeWireBinding(d)
			if err != nil {
				return nil, err
			}
			return RenewResponse{Binding: b}, nil
		})
	wire.Register(tagDepositRequest, "core.DepositRequest", DepositRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(DepositRequest)
			return m.appendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			return decodeDepositRequest(d)
		})
	wire.Register(tagDepositResponse, "core.DepositResponse", DepositResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendInt(dst, v.(DepositResponse).Amount), nil
		},
		func(d *wire.Decoder) (any, error) {
			amt, err := d.Int()
			if err != nil {
				return nil, err
			}
			return DepositResponse{Amount: amt}, nil
		})
	wire.Register(tagLayeredDepositRequest, "core.LayeredDepositRequest", LayeredDepositRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(LayeredDepositRequest)
			dst = m.LC.AppendWire(dst)
			dst = wire.AppendString(dst, m.PayoutRef)
			dst = wire.AppendBytes(dst, m.HolderSig)
			dst = m.GroupSig.AppendWire(dst)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m LayeredDepositRequest
			var err error
			if m.LC, err = layered.DecodeWireCoin(d); err != nil {
				return nil, err
			}
			if m.PayoutRef, err = d.String(); err != nil {
				return nil, err
			}
			if m.HolderSig, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSyncRequest, "core.SyncRequest", SyncRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SyncRequest)
			dst = wire.AppendString(dst, m.Identity)
			dst = wire.AppendBytes(dst, m.Nonce)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SyncRequest
			var err error
			if m.Identity, err = d.String(); err != nil {
				return nil, err
			}
			if m.Nonce, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSyncResponse, "core.SyncResponse", SyncResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(SyncResponse).Bindings, (*coin.Binding).AppendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			bindings, err := wire.DecodeList(d, coin.DecodeWireBinding)
			if err != nil {
				return nil, err
			}
			return SyncResponse{Bindings: bindings}, nil
		})
	wire.Register(tagFraudReport, "core.FraudReport", FraudReport{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(FraudReport)
			dst = wire.AppendBytes(dst, m.CoinPub)
			dst = m.MyBinding.AppendWire(dst)
			dst = m.Observed.AppendWire(dst)
			dst = m.GroupSig.AppendWire(dst)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m FraudReport
			var err error
			if m.CoinPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.MyBinding, err = coin.DecodeWireBinding(d); err != nil {
				return nil, err
			}
			if m.Observed, err = coin.DecodeWireBinding(d); err != nil {
				return nil, err
			}
			if m.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagFraudResponse, "core.FraudResponse", FraudResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(FraudResponse)
			dst = wire.AppendU64(dst, m.CaseID)
			dst = wire.AppendString(dst, m.Verdict)
			dst = wire.AppendString(dst, m.Punished)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m FraudResponse
			var err error
			if m.CaseID, err = d.U64(); err != nil {
				return nil, err
			}
			if m.Verdict, err = d.String(); err != nil {
				return nil, err
			}
			if m.Punished, err = d.String(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDisputeRequest, "core.DisputeRequest", DisputeRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(DisputeRequest)
			dst = wire.AppendBytes(dst, m.CoinPub)
			dst = wire.AppendU64(dst, m.FromSeq)
			dst = wire.AppendU64(dst, m.ToSeq)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m DisputeRequest
			var err error
			if m.CoinPub, err = decodeKey(d); err != nil {
				return nil, err
			}
			if m.FromSeq, err = d.U64(); err != nil {
				return nil, err
			}
			if m.ToSeq, err = d.U64(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDisputeResponse, "core.DisputeResponse", DisputeResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(DisputeResponse).Proofs, (*RelinquishProof).appendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			proofs, err := wire.DecodeList(d, decodeRelinquishProof)
			if err != nil {
				return nil, err
			}
			return DisputeResponse{Proofs: proofs}, nil
		})
	wire.Register(tagRelinquishProof, "core.RelinquishProof", RelinquishProof{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(RelinquishProof)
			return m.appendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			return decodeRelinquishProof(d)
		})
	registerChannelWireCodecs()
}

// registerChannelWireCodecs installs the micropayment-channel and
// batch-deposit codecs (tags 27–34).
func registerChannelWireCodecs() {
	wire.Register(tagChannelOpenRequest, "core.ChannelOpenRequest", ChannelOpenRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ChannelOpenRequest)
			dst = appendCommitment(dst, &m.Commitment)
			dst = wire.AppendBool(dst, m.Lottery)
			dst = wire.AppendUvarint(dst, uint64(m.WinDivisor))
			dst = wire.AppendUvarint(dst, uint64(m.Prize))
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m ChannelOpenRequest
			var err error
			if m.Commitment, err = decodeCommitment(d); err != nil {
				return nil, err
			}
			if m.Lottery, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.WinDivisor, err = d.Uvarint32(); err != nil {
				return nil, err
			}
			if m.Prize, err = d.Uvarint32(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagChannelOpenResponse, "core.ChannelOpenResponse", ChannelOpenResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendBytes(dst, v.(ChannelOpenResponse).Nonce), nil
		},
		func(d *wire.Decoder) (any, error) {
			nonce, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			return ChannelOpenResponse{Nonce: nonce}, nil
		})
	wire.Register(tagChannelPayRequest, "core.ChannelPayRequest", ChannelPayRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ChannelPayRequest)
			dst = appendPayment(dst, &m.Payment)
			dst = appendTicketPtr(dst, m.Ticket)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m ChannelPayRequest
			var err error
			if m.Payment, err = decodePayment(d); err != nil {
				return nil, err
			}
			if m.Ticket, err = decodeTicketPtr(d); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagChannelPayResponse, "core.ChannelPayResponse", ChannelPayResponse{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ChannelPayResponse)
			dst = wire.AppendInt(dst, m.Owed)
			dst = wire.AppendBool(dst, m.Won)
			dst = wire.AppendBytes(dst, m.Nonce)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m ChannelPayResponse
			var err error
			if m.Owed, err = d.Int(); err != nil {
				return nil, err
			}
			if m.Won, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.Nonce, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagChannelCloseRequest, "core.ChannelCloseRequest", ChannelCloseRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ChannelCloseRequest)
			dst = appendWord(dst, m.Root)
			dst = wire.AppendBytes(dst, []byte(m.CoinID))
			dst = wire.AppendBool(dst, m.Final)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m ChannelCloseRequest
			var err error
			if m.Root, err = decodeWord(d); err != nil {
				return nil, err
			}
			var raw []byte
			if raw, err = d.Bytes(); err != nil {
				return nil, err
			}
			m.CoinID = coin.ID(raw)
			if m.Final, err = d.Bool(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagChannelCloseResponse, "core.ChannelCloseResponse", ChannelCloseResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendInt(dst, v.(ChannelCloseResponse).Settled), nil
		},
		func(d *wire.Decoder) (any, error) {
			settled, err := d.Int()
			if err != nil {
				return nil, err
			}
			return ChannelCloseResponse{Settled: settled}, nil
		})
	wire.Register(tagBatchDepositRequest, "core.BatchDepositRequest", BatchDepositRequest{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(BatchDepositRequest).Deposits, (*DepositRequest).appendWire), nil
		},
		func(d *wire.Decoder) (any, error) {
			deposits, err := wire.DecodeList(d, decodeDepositRequest)
			if err != nil {
				return nil, err
			}
			return BatchDepositRequest{Deposits: deposits}, nil
		})
	wire.Register(tagBatchDepositResponse, "core.BatchDepositResponse", BatchDepositResponse{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendList(dst, v.(BatchDepositResponse).Results, appendBatchDepositResult), nil
		},
		func(d *wire.Decoder) (any, error) {
			results, err := wire.DecodeList(d, decodeBatchDepositResult)
			if err != nil {
				return nil, err
			}
			return BatchDepositResponse{Results: results}, nil
		})
	wire.Register(tagSettleRequest, "core.SettleRequest", SettleRequest{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SettleRequest)
			dst = wire.AppendBytes(dst, m.CoinID)
			dst = wire.AppendString(dst, m.PayoutRef)
			dst = wire.AppendInt(dst, m.Amount)
			dst = wire.AppendInt(dst, int64(m.FromShard))
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SettleRequest
			var err error
			if m.CoinID, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.PayoutRef, err = d.String(); err != nil {
				return nil, err
			}
			if m.Amount, err = d.Int(); err != nil {
				return nil, err
			}
			from, err := d.Int()
			if err != nil {
				return nil, err
			}
			m.FromShard = int(from)
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSettleResponse, "core.SettleResponse", SettleResponse{},
		func(dst []byte, v any) ([]byte, error) { return dst, nil },
		func(d *wire.Decoder) (any, error) { return SettleResponse{}, nil })
}

// appendWord / decodeWord handle payword's fixed 32-byte hash values.
func appendWord(dst []byte, w payword.Word) []byte {
	return wire.AppendBytes(dst, w[:])
}

func decodeWord(d *wire.Decoder) (payword.Word, error) {
	var w payword.Word
	raw, err := d.Bytes()
	if err != nil {
		return w, err
	}
	if len(raw) != len(w) {
		return w, fmt.Errorf("%w: payword word is %d bytes, want %d", wire.ErrMalformed, len(raw), len(w))
	}
	copy(w[:], raw)
	return w, nil
}

func appendCommitment(dst []byte, c *payword.Commitment) []byte {
	dst = wire.AppendString(dst, c.Vendor)
	dst = appendWord(dst, c.Root)
	dst = wire.AppendUvarint(dst, uint64(c.Length))
	dst = wire.AppendBytes(dst, c.Payer)
	dst = wire.AppendBytes(dst, c.Sig)
	return dst
}

func decodeCommitment(d *wire.Decoder) (payword.Commitment, error) {
	var c payword.Commitment
	var err error
	if c.Vendor, err = d.String(); err != nil {
		return c, err
	}
	if c.Root, err = decodeWord(d); err != nil {
		return c, err
	}
	if c.Length, err = d.Uvarint32(); err != nil {
		return c, err
	}
	if c.Payer, err = decodeKey(d); err != nil {
		return c, err
	}
	if c.Sig, err = d.Bytes(); err != nil {
		return c, err
	}
	return c, nil
}

func appendPayment(dst []byte, p *payword.Payment) []byte {
	dst = appendWord(dst, p.Root)
	dst = wire.AppendUvarint(dst, uint64(p.Index))
	dst = appendWord(dst, p.W)
	return dst
}

func decodePayment(d *wire.Decoder) (payword.Payment, error) {
	var p payword.Payment
	var err error
	if p.Root, err = decodeWord(d); err != nil {
		return p, err
	}
	if p.Index, err = d.Uvarint32(); err != nil {
		return p, err
	}
	if p.W, err = decodeWord(d); err != nil {
		return p, err
	}
	return p, nil
}

// appendTicketPtr / decodeTicketPtr use the same leading presence flag as
// coin.AppendWireBindingPtr, so nil survives the round trip.
func appendTicketPtr(dst []byte, tk *payword.Ticket) []byte {
	if tk == nil {
		return wire.AppendBool(dst, false)
	}
	dst = wire.AppendBool(dst, true)
	dst = wire.AppendString(dst, tk.Vendor)
	dst = wire.AppendU64(dst, tk.Serial)
	dst = wire.AppendUvarint(dst, uint64(tk.WinDivisor))
	dst = wire.AppendUvarint(dst, uint64(tk.Prize))
	dst = wire.AppendBytes(dst, tk.VendorNonce[:])
	dst = wire.AppendBytes(dst, tk.Payer)
	dst = wire.AppendBytes(dst, tk.Sig)
	return dst
}

func decodeTicketPtr(d *wire.Decoder) (*payword.Ticket, error) {
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	tk := &payword.Ticket{}
	if tk.Vendor, err = d.String(); err != nil {
		return nil, err
	}
	if tk.Serial, err = d.U64(); err != nil {
		return nil, err
	}
	if tk.WinDivisor, err = d.Uvarint32(); err != nil {
		return nil, err
	}
	if tk.Prize, err = d.Uvarint32(); err != nil {
		return nil, err
	}
	var nonce payword.Word
	if nonce, err = decodeWord(d); err != nil {
		return nil, err
	}
	tk.VendorNonce = nonce
	if tk.Payer, err = decodeKey(d); err != nil {
		return nil, err
	}
	if tk.Sig, err = d.Bytes(); err != nil {
		return nil, err
	}
	return tk, nil
}

// appendWire / decodeDepositRequest are the DepositRequest codec, shared
// with BatchDepositRequest so batches nest the identical layout.
func (m *DepositRequest) appendWire(dst []byte) []byte {
	dst = wire.AppendBytes(dst, m.CoinPub)
	dst = wire.AppendString(dst, m.PayoutRef)
	dst = wire.AppendBytes(dst, m.HolderSig)
	dst = m.GroupSig.AppendWire(dst)
	dst = coin.AppendWireBindingPtr(dst, m.PresentedBinding)
	return dst
}

func decodeDepositRequest(d *wire.Decoder) (DepositRequest, error) {
	var m DepositRequest
	var err error
	if m.CoinPub, err = decodeKey(d); err != nil {
		return m, err
	}
	if m.PayoutRef, err = d.String(); err != nil {
		return m, err
	}
	if m.HolderSig, err = d.Bytes(); err != nil {
		return m, err
	}
	if m.GroupSig, err = groupsig.DecodeWireSignature(d); err != nil {
		return m, err
	}
	if m.PresentedBinding, err = coin.DecodeWireBindingPtr(d); err != nil {
		return m, err
	}
	return m, nil
}

func (p *RelinquishProof) appendWire(dst []byte) []byte {
	dst = wire.AppendBool(dst, p.Renewal)
	dst = p.Body.AppendWire(dst)
	dst = wire.AppendBytes(dst, p.HolderSig)
	dst = wire.AppendBytes(dst, p.PrevHold)
	return dst
}

func decodeRelinquishProof(d *wire.Decoder) (RelinquishProof, error) {
	var p RelinquishProof
	var err error
	if p.Renewal, err = d.Bool(); err != nil {
		return p, err
	}
	if p.Body, err = coin.DecodeWireTransferBody(d); err != nil {
		return p, err
	}
	if p.HolderSig, err = d.Bytes(); err != nil {
		return p, err
	}
	if p.PrevHold, err = decodeKey(d); err != nil {
		return p, err
	}
	return p, nil
}

func appendBatchDepositResult(r *BatchDepositResult, dst []byte) []byte {
	dst = wire.AppendInt(dst, r.Amount)
	dst = wire.AppendString(dst, r.ErrCode)
	return wire.AppendString(dst, r.ErrMsg)
}

func decodeBatchDepositResult(d *wire.Decoder) (BatchDepositResult, error) {
	var r BatchDepositResult
	var err error
	if r.Amount, err = d.Int(); err != nil {
		return r, err
	}
	if r.ErrCode, err = d.String(); err != nil {
		return r, err
	}
	r.ErrMsg, err = d.String()
	return r, err
}
