package indirect

import (
	"whopay/internal/bus"
	"whopay/internal/wire"
)

// Wire type tags for indirection messages (stable wire contract).
const (
	tagRegisterMsg = 60
	tagForwardMsg  = 61
	tagAck         = 62
)

// RegisterWireCodecs registers the indirection-layer messages with the
// wire codec registry. ForwardMsg's inner payload is an any-valued field
// (wire.AppendAny): the inner type must have a codec of its own.
func RegisterWireCodecs() {
	wire.Register(tagRegisterMsg, "indirect.RegisterMsg", RegisterMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(RegisterMsg)
			dst = wire.AppendBytes(dst, m.Handle)
			dst = wire.AppendString(dst, string(m.Target))
			dst = wire.AppendU64(dst, m.Version)
			dst = wire.AppendBytes(dst, m.Sig)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m RegisterMsg
			var err error
			if m.Handle, err = d.Bytes(); err != nil {
				return nil, err
			}
			var s string
			if s, err = d.String(); err != nil {
				return nil, err
			}
			m.Target = bus.Address(s)
			if m.Version, err = d.U64(); err != nil {
				return nil, err
			}
			if m.Sig, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagForwardMsg, "indirect.ForwardMsg", ForwardMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(ForwardMsg)
			dst = wire.AppendBytes(dst, m.Handle)
			return wire.AppendAny(dst, m.Inner)
		},
		func(d *wire.Decoder) (any, error) {
			var m ForwardMsg
			var err error
			if m.Handle, err = d.Bytes(); err != nil {
				return nil, err
			}
			if m.Inner, err = d.Any(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagAck, "indirect.Ack", Ack{},
		func(dst []byte, v any) ([]byte, error) { return dst, nil },
		func(d *wire.Decoder) (any, error) { return Ack{}, nil })
}
