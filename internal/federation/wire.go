// Package federation replicates each broker shard of a federated trust root
// (DESIGN.md §13): the shard leader streams its write-ahead log to follower
// replicas frame-by-frame, a lease arbiter fences exactly one leader per
// shard, and on leader death a caught-up follower promotes itself by
// recovering a full broker from its mirrored log — same journaled signing
// key, same coins, zero committed state lost.
package federation

import "whopay/internal/wire"

// Wire type tags for replication messages. Part of the wire contract: stable
// across versions, never reused. Core protocol uses 1–36, the DHT 40–47;
// federation owns 70+.
const (
	tagFrameMsg = 70
	tagFrameAck = 71
	tagStateMsg = 72
	tagStateAck = 73
)

// FrameMsg carries one committed WAL frame from a shard leader to a
// follower: the segment it belongs to, the byte offset of the frame within
// that segment, and the raw frame bytes exactly as written locally. Epoch is
// the leader's lease epoch — followers reject frames from deposed leaders.
type FrameMsg struct {
	Shard int
	Epoch uint64
	Seg   uint64
	Off   int64
	Frame []byte
}

// FrameAck acknowledges a frame. Resync set means the follower's mirror has
// diverged (fresh replica, missed frames, torn tail) and it needs the full
// file set.
type FrameAck struct {
	Resync bool
}

// StateMsg ships a leader's complete live log — every segment and snapshot
// file, whole — to a follower whose mirror diverged.
type StateMsg struct {
	Shard int
	Epoch uint64
	Files []StateFile
}

// StateFile is one log file in a StateMsg.
type StateFile struct {
	Name string
	Data []byte
}

// StateAck acknowledges a full-state resync.
type StateAck struct{}

// RegisterWireTypes registers the replication messages' binary codecs with
// the wire registry. Call it before running federation nodes over tcpbus;
// the in-memory bus does not need it. Idempotent.
func RegisterWireTypes() {
	wire.Register(tagFrameMsg, "federation.FrameMsg", FrameMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(FrameMsg)
			dst = wire.AppendInt(dst, int64(m.Shard))
			dst = wire.AppendUvarint(dst, m.Epoch)
			dst = wire.AppendUvarint(dst, m.Seg)
			dst = wire.AppendInt(dst, m.Off)
			dst = wire.AppendBytes(dst, m.Frame)
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m FrameMsg
			shard, err := d.Int()
			if err != nil {
				return nil, err
			}
			m.Shard = int(shard)
			if m.Epoch, err = d.Uvarint(); err != nil {
				return nil, err
			}
			if m.Seg, err = d.Uvarint(); err != nil {
				return nil, err
			}
			if m.Off, err = d.Int(); err != nil {
				return nil, err
			}
			if m.Frame, err = d.Bytes(); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagFrameAck, "federation.FrameAck", FrameAck{},
		func(dst []byte, v any) ([]byte, error) {
			return wire.AppendBool(dst, v.(FrameAck).Resync), nil
		},
		func(d *wire.Decoder) (any, error) {
			resync, err := d.Bool()
			if err != nil {
				return nil, err
			}
			return FrameAck{Resync: resync}, nil
		})
	wire.Register(tagStateMsg, "federation.StateMsg", StateMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(StateMsg)
			dst = wire.AppendInt(dst, int64(m.Shard))
			dst = wire.AppendUvarint(dst, m.Epoch)
			dst = wire.AppendUvarint(dst, uint64(len(m.Files)))
			for i := range m.Files {
				dst = wire.AppendString(dst, m.Files[i].Name)
				dst = wire.AppendBytes(dst, m.Files[i].Data)
			}
			return dst, nil
		},
		func(d *wire.Decoder) (any, error) {
			var m StateMsg
			shard, err := d.Int()
			if err != nil {
				return nil, err
			}
			m.Shard = int(shard)
			if m.Epoch, err = d.Uvarint(); err != nil {
				return nil, err
			}
			n, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(d.Len()) {
				return nil, wire.ErrMalformed
			}
			for i := uint64(0); i < n; i++ {
				var f StateFile
				if f.Name, err = d.String(); err != nil {
					return nil, err
				}
				if f.Data, err = d.Bytes(); err != nil {
					return nil, err
				}
				m.Files = append(m.Files, f)
			}
			return m, nil
		})
	wire.Register(tagStateAck, "federation.StateAck", StateAck{},
		func(dst []byte, v any) ([]byte, error) { return dst, nil },
		func(d *wire.Decoder) (any, error) { return StateAck{}, nil })
}
