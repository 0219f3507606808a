package core

import (
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/obs"
	"whopay/internal/sig"
)

// TestTraceStaysInParty pins the anonymity rule for tracing on the
// production stack: one anonymous transfer is a three-hop exchange — payer
// → payee (offer), payer → owner (transfer), owner → payee (deliver) —
// each hop crossing a real TCP socket. With a registry shared by all three
// parties every party records its own spans, and no trace ID is shared
// between parties: a shared ID would let the owner and the payee link the
// payer's hops.
func TestTraceStaysInParty(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		reg := obs.NewRegistry()
		w := newTCPWorld(t, scheme, tcpWorldOpts{reg: reg})
		owner := w.peer("trace-owner", nil)
		payer := w.peer("trace-payer", nil)
		payee := w.peer("trace-payee", nil)

		id, err := owner.Purchase(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.IssueTo(payer.ep.Addr(), id); err != nil {
			t.Fatal(err)
		}
		if err := payer.TransferTo(payee.ep.Addr(), id); err != nil {
			t.Fatal(err)
		}

		recorded := make(map[string]bool)
		party := make(map[string]string) // trace ID → entity that recorded it
		for _, s := range reg.Tracer().Spans() {
			recorded[s.Entity+" "+s.Op] = true
			if s.TraceID == "" {
				t.Errorf("span %s/%s has no trace ID", s.Entity, s.Op)
			}
			if e, ok := party[s.TraceID]; ok && e != s.Entity {
				t.Errorf("trace %s is shared by %s and %s", s.TraceID, e, s.Entity)
			}
			party[s.TraceID] = s.Entity
		}
		for _, want := range []string{
			"trace-payer transfer",
			"trace-payee serve-offer",
			"trace-owner serve-transfer",
			"trace-payee serve-deliver",
		} {
			if !recorded[want] {
				t.Errorf("no %q span recorded", want)
			}
		}
	})
}

// TestUntracedTCPEnvelopeUnchanged pins the wire contract of tracing. With
// no registry the stack runs as before. On an instrumented network the
// same call puts the same bytes on the wire whether or not the caller has
// a span open, because no trace identity rides a frame.
func TestUntracedTCPEnvelopeUnchanged(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		w := newTCPWorld(t, scheme, tcpWorldOpts{})
		if _, err := w.peer("untraced", nil).Purchase(1, false); err != nil {
			t.Fatalf("purchase without obs: %v", err)
		}
	})
	t.Run("span-open", func(t *testing.T) {
		reg := obs.NewRegistry()
		network := tcpbus.New(tcpbus.WithObs(reg))
		h := func(bus.Address, any) (any, error) { return nil, nil }
		srv, err := network.Listen("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cli, err := network.Listen("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })

		value := func(name string) float64 { v, _ := reg.Value(name, nil); return v }
		// callBytes makes one call and returns the bytes it put on the wire.
		// Both ends count received bytes before the call returns, but a
		// writer counts sent bytes after its write, so wait for tx to catch
		// up with rx.
		callBytes := func() float64 {
			tx0, rx0 := value("whopay_tcpbus_bytes_tx_total"), value("whopay_tcpbus_bytes_rx_total")
			if _, err := cli.Call(srv.Addr(), nil); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for value("whopay_tcpbus_bytes_tx_total")-tx0 < value("whopay_tcpbus_bytes_rx_total")-rx0 {
				if time.Now().After(deadline) {
					t.Fatal("sent bytes never caught up with received bytes")
				}
				time.Sleep(time.Millisecond)
			}
			return value("whopay_tcpbus_bytes_tx_total") - tx0
		}
		callBytes() // dials the connection and sends the preamble
		plain := callBytes()
		in := obs.NewInstr(reg, "caller")
		sp := in.Begin("call")
		traced := callBytes()
		in.End(sp, nil)
		if traced != plain {
			t.Fatalf("a call with a span open sent %v bytes, without one %v", traced, plain)
		}
	})
}
