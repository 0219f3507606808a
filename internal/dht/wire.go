package dht

import (
	"whopay/internal/bus"
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// Fixed-layout wire codecs (internal/wire) for the DHT's messages — the
// binding-list put/get traffic the paper's real-time double-spending
// detection turns into the hottest wire path in the system.

// Wire type tags for DHT messages. Part of the wire contract: stable across
// versions, never reused.
const (
	tagPutMsg = 40
	// 41 and 42 are retired — the unreplicated read and its response,
	// replaced by LeaseGetMsg/LeaseResp — and must never be reused.
	// 43 and 44 are retired — the Chord routing step and its response,
	// gone with iterative routing — and must never be reused.
	tagSubMsg = 45
	tagNotify = 46
	tagAck    = 47

	// Replication subsystem (DESIGN.md §14).
	tagQuorumPutMsg  = 48
	tagQuorumAck     = 49
	tagDigestMsg     = 50
	tagDigestResp    = 51
	tagSweepMsg      = 52
	tagSweepResp     = 53
	tagSweepKeysMsg  = 54
	tagSweepKeysResp = 55
	tagLeaseGetMsg   = 56
	tagLeaseResp     = 57
)

// AppendWire appends the record's wire encoding to dst. Epoch crosses only
// between nodes (replica fan-out); writers never set it, but the codec
// carries it so replicas fence exactly as the accepting node decided.
func (r *Record) AppendWire(dst []byte) []byte {
	dst = wire.AppendRaw(dst, r.Key[:])
	dst = wire.AppendU64(dst, r.Version)
	dst = wire.AppendBytes(dst, r.Value)
	dst = wire.AppendBytes(dst, r.AuthPub)
	dst = wire.AppendBytes(dst, r.Sig)
	dst = wire.AppendU64(dst, r.Epoch)
	return dst
}

// DecodeWireRecord decodes a record written by AppendWire.
func DecodeWireRecord(d *wire.Decoder) (Record, error) {
	var r Record
	if err := d.Fixed(r.Key[:]); err != nil {
		return r, err
	}
	var err error
	if r.Version, err = d.U64(); err != nil {
		return r, err
	}
	if r.Value, err = d.Bytes(); err != nil {
		return r, err
	}
	var raw []byte
	if raw, err = d.Bytes(); err != nil {
		return r, err
	}
	r.AuthPub = sig.PublicKey(raw)
	if r.Sig, err = d.Bytes(); err != nil {
		return r, err
	}
	if r.Epoch, err = d.U64(); err != nil {
		return r, err
	}
	return r, nil
}

// RegisterWireCodecs registers every DHT message with the wire codec
// registry. Idempotent; core.RegisterWireTypes calls it.
func RegisterWireCodecs() {
	wire.Register(tagPutMsg, "dht.PutMsg", PutMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(PutMsg)
			return m.Rec.AppendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			rec, err := DecodeWireRecord(d)
			if err != nil {
				return nil, err
			}
			return PutMsg{Rec: rec}, nil
		})
	wire.Register(tagSubMsg, "dht.SubMsg", SubMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SubMsg)
			dst = wire.AppendRaw(dst, m.Key[:])
			dst = wire.AppendString(dst, string(m.Watcher))
			dst = wire.AppendBool(dst, m.Unsub)
			dst = wire.AppendBool(dst, m.NoReplicate)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SubMsg
			if err := d.Fixed(m.Key[:]); err != nil {
				return nil, err
			}
			s, err := d.String()
			if err != nil {
				return nil, err
			}
			m.Watcher = bus.Address(s)
			if m.Unsub, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.NoReplicate, err = d.Bool(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagNotify, "dht.Notify", Notify{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(Notify)
			return m.Rec.AppendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			rec, err := DecodeWireRecord(d)
			if err != nil {
				return nil, err
			}
			return Notify{Rec: rec}, nil
		})
	wire.Register(tagAck, "dht.Ack", Ack{},
		func(dst []byte, v any) ([]byte, error) { return dst, nil },
		func(d *wire.Decoder) (any, error) { return Ack{}, nil })
	registerReplicaWireCodecs()
}
