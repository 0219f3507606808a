package dht

import (
	"whopay/internal/bus"
	"whopay/internal/wire"
)

// Fixed-layout wire codecs for the replication subsystem's messages
// (tags 48–57, DESIGN.md §14). Same canonical-encoding contract as the
// rest of the registry: decode→re-encode is byte-identical.

func appendWireKeyVer(kv *KeyVer, dst []byte) []byte {
	dst = wire.AppendRaw(dst, kv.Key[:])
	return wire.AppendU64(dst, kv.Version)
}

func decodeWireKeyVer(d *wire.Decoder) (KeyVer, error) {
	var kv KeyVer
	if err := d.Fixed(kv.Key[:]); err != nil {
		return kv, err
	}
	var err error
	kv.Version, err = d.U64()
	return kv, err
}

func appendWireSubState(s *SubState, dst []byte) []byte {
	dst = wire.AppendRaw(dst, s.Key[:])
	return wire.AppendStrings(dst, s.Watchers)
}

func decodeWireSubState(d *wire.Decoder) (SubState, error) {
	var s SubState
	if err := d.Fixed(s.Key[:]); err != nil {
		return s, err
	}
	var err error
	s.Watchers, err = wire.DecodeStrings[bus.Address](d)
	return s, err
}

func appendWireKey(k *Key, dst []byte) []byte { return wire.AppendRaw(dst, k[:]) }

func decodeWireKey(d *wire.Decoder) (Key, error) {
	var k Key
	err := d.Fixed(k[:])
	return k, err
}

func registerReplicaWireCodecs() {
	wire.Register(tagQuorumPutMsg, "dht.QuorumPutMsg", QuorumPutMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(QuorumPutMsg)
			return m.Rec.AppendWire(dst), nil
		},
		func(d *wire.Decoder) (any, error) {
			rec, err := DecodeWireRecord(d)
			if err != nil {
				return nil, err
			}
			return QuorumPutMsg{Rec: rec}, nil
		})
	wire.Register(tagQuorumAck, "dht.QuorumAck", QuorumAck{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(QuorumAck)
			dst = wire.AppendUvarint(dst, uint64(m.Committed))
			dst = wire.AppendUvarint(dst, uint64(m.Required))
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m QuorumAck
			var err error
			if m.Committed, err = d.Uvarint32(); err != nil {
				return nil, err
			}
			if m.Required, err = d.Uvarint32(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDigestMsg, "dht.DigestMsg", DigestMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(DigestMsg)
			return wire.AppendRaw(dst, m.Key[:]), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m DigestMsg
			if err := d.Fixed(m.Key[:]); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagDigestResp, "dht.DigestResp", DigestResp{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(DigestResp)
			dst = wire.AppendBool(dst, m.Found)
			dst = wire.AppendU64(dst, m.Version)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m DigestResp
			var err error
			if m.Found, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.Version, err = d.U64(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSweepMsg, "dht.SweepMsg", SweepMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SweepMsg)
			dst = wire.AppendString(dst, string(m.From))
			dst = wire.AppendRaw(dst, m.Sum[:])
			dst = wire.AppendU64(dst, m.Count)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SweepMsg
			s, err := d.String()
			if err != nil {
				return nil, err
			}
			m.From = bus.Address(s)
			if err := d.Fixed(m.Sum[:]); err != nil {
				return nil, err
			}
			if m.Count, err = d.U64(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSweepResp, "dht.SweepResp", SweepResp{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendBool(dst, v.(SweepResp).Match), nil
		},
		func(d *wire.Decoder) (any, error) {
			match, err := d.Bool()
			if err != nil {
				return nil, err
			}
			return SweepResp{Match: match}, nil
		})
	wire.Register(tagSweepKeysMsg, "dht.SweepKeysMsg", SweepKeysMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SweepKeysMsg)
			dst = wire.AppendString(dst, string(m.From))
			dst = wire.AppendList(dst, m.Recs, appendWireKeyVer)
			return wire.AppendList(dst, m.Subs, appendWireSubState), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SweepKeysMsg
			s, err := d.String()
			if err != nil {
				return nil, err
			}
			m.From = bus.Address(s)
			if m.Recs, err = wire.DecodeList(d, decodeWireKeyVer); err != nil {
				return nil, err
			}
			if m.Subs, err = wire.DecodeList(d, decodeWireSubState); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagSweepKeysResp, "dht.SweepKeysResp", SweepKeysResp{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(SweepKeysResp)
			dst = wire.AppendList(dst, m.Newer, (*Record).AppendWire)
			dst = wire.AppendList(dst, m.Want, appendWireKey)
			return wire.AppendList(dst, m.Subs, appendWireSubState), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m SweepKeysResp
			var err error
			if m.Newer, err = wire.DecodeList(d, DecodeWireRecord); err != nil {
				return nil, err
			}
			if m.Want, err = wire.DecodeList(d, decodeWireKey); err != nil {
				return nil, err
			}
			if m.Subs, err = wire.DecodeList(d, decodeWireSubState); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagLeaseGetMsg, "dht.LeaseGetMsg", LeaseGetMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(LeaseGetMsg)
			return wire.AppendRaw(dst, m.Key[:]), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m LeaseGetMsg
			if err := d.Fixed(m.Key[:]); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagLeaseResp, "dht.LeaseResp", LeaseResp{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(LeaseResp)
			dst = m.Rec.AppendWire(dst)
			dst = wire.AppendBool(dst, m.Found)
			dst = wire.AppendUvarint(dst, uint64(m.GrantMs))
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m LeaseResp
			var err error
			if m.Rec, err = DecodeWireRecord(d); err != nil {
				return nil, err
			}
			if m.Found, err = d.Bool(); err != nil {
				return nil, err
			}
			if m.GrantMs, err = d.Uvarint32(); err != nil {
				return nil, err
			}
			return m, nil
		})
}
