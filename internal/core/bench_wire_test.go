package core

import (
	"reflect"
	"testing"

	"whopay/internal/bus/tcpbus"
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// filledTransferRequest builds a representative hot-path message: the
// paper's per-hop transfer carries a body, a holder signature, a group
// signature, and usually a presented binding.
func filledTransferRequest(tb testing.TB) TransferRequest {
	tb.Helper()
	registerOnce.Do(RegisterWireTypes)
	var msg TransferRequest
	ctr := 0
	fillValue(reflect.ValueOf(&msg).Elem(), &ctr, 0)
	return msg
}

// BenchmarkWireCodecTransferRequest measures the codec on the message every
// transfer hop sends.
func BenchmarkWireCodecTransferRequest(b *testing.B) {
	msg := filledTransferRequest(b)
	e, ok := wire.ByValue(msg)
	if !ok {
		b.Fatal("no codec registered for TransferRequest")
	}

	b.Run("wire-encode", func(b *testing.B) {
		wire.PutBuf(wire.GetBuf())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := e.Enc(wire.GetBuf(), msg)
			if err != nil {
				b.Fatal(err)
			}
			wire.PutBuf(buf)
		}
	})

	enc, err := e.Enc(nil, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("encoded size: %dB", len(enc))

	b.Run("wire-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(e.Tag, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransferWhoPayTCP measures the same owner-serviced transfer as
// BenchmarkTransferWhoPay, but over real TCP sockets on the framed binary
// wire.
func BenchmarkTransferWhoPayTCP(b *testing.B) {
	b.Run("framed", func(b *testing.B) {
		registerOnce.Do(RegisterWireTypes)
		network := tcpbus.New()
		scheme := sig.Default()
		dir := NewDirectory()
		judge, err := NewJudge(scheme)
		if err != nil {
			b.Fatal(err)
		}
		broker, err := NewBroker(BrokerConfig{
			Network:   network,
			Addr:      "127.0.0.1:0",
			Scheme:    scheme,
			Directory: dir,
			GroupPub:  judge.GroupPublicKey(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer broker.Close()

		mk := func(id string) *Peer {
			p, err := NewPeer(PeerConfig{
				ID:         id,
				Network:    network,
				Addr:       "127.0.0.1:0",
				Scheme:     scheme,
				Directory:  dir,
				BrokerAddr: brokerBoundAddr(broker),
				BrokerPub:  broker.PublicKey(),
				Judge:      judge,
				CredPool:   b.N + 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			dir.Register(id, p.PublicKey(), p.ep.Addr())
			return p
		}
		u, v, w := mk("u"), mk("v"), mk("w")
		defer u.Close()
		defer v.Close()
		defer w.Close()

		id, err := u.Purchase(1, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := u.IssueTo(v.ep.Addr(), id); err != nil {
			b.Fatal(err)
		}
		from, to := v, w
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := from.TransferTo(to.ep.Addr(), id); err != nil {
				b.Fatal(err)
			}
			from, to = to, from
		}
	})
}
