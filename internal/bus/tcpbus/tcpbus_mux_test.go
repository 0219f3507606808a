package tcpbus

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/obs"
	"whopay/internal/wire"
)

// Tests for the multiplexed framed transport: concurrent calls over one
// connection, pipelining, reconnect, payloads without a codec, and the
// transport metrics.

// TestMuxHammer drives many concurrent callers through one pooled
// connection; run under -race this is the mux's data-race net. Every reply
// must reach the call that issued its request — a crossed request ID wires
// one caller's coins to another.
func TestMuxHammer(t *testing.T) {
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		m := msg.(testMsg)
		if m.Kind == "err" {
			return nil, fmt.Errorf("no %d", m.N)
		}
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := w*10000 + i
				kind := "ok"
				if i%5 == 0 {
					kind = "err"
				}
				resp, err := cli.Call(srv.Addr(), testMsg{Kind: kind, N: id})
				if kind == "err" {
					var remote *bus.RemoteError
					if !errors.As(err, &remote) || !strings.Contains(remote.Msg, fmt.Sprint(id)) {
						t.Errorf("worker %d call %d: err = %v, want remote 'no %d'", w, i, err, id)
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if got := resp.(testMsg).N; got != id {
					t.Errorf("worker %d call %d: reply for %d crossed wires", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMuxPipelining: a slow handler must not head-of-line block later
// requests on the same connection — each request gets its own handler
// goroutine and replies flow back as they finish.
func TestMuxPipelining(t *testing.T) {
	n := New()
	slowGate := make(chan struct{})
	srv, err := n.Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		m := msg.(testMsg)
		if m.Kind == "slow" {
			<-slowGate
		}
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(srv.Addr(), testMsg{Kind: "slow"})
		slowDone <- err
	}()
	// Give the slow request time to occupy the connection.
	time.Sleep(50 * time.Millisecond)
	if _, err := cli.Call(srv.Addr(), testMsg{Kind: "fast", N: 1}); err != nil {
		t.Fatalf("fast call blocked behind slow handler: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before its gate opened: %v", err)
	default:
	}
	close(slowGate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestMuxReconnect: a severed pooled connection fails the calls in flight
// on it, and the next call transparently redials.
func TestMuxReconnect(t *testing.T) {
	reg := obs.NewRegistry()
	n := New(WithObs(reg))
	srv, err := New().Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Call(srv.Addr(), testMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Reach into the pool and sever the live connection out from under the
	// endpoint, as a mid-call network partition would.
	ep := cli.(*endpoint)
	ep.poolMu.Lock()
	slot := ep.pool[srv.Addr()]
	ep.poolMu.Unlock()
	slot.mu.Lock()
	pc := slot.pc
	slot.mu.Unlock()
	if pc == nil {
		t.Fatal("no pooled connection after a successful call")
	}
	pc.conn.Close()

	// The next calls succeed over a fresh connection (the first may observe
	// the dead socket before the read loop clears it).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := cli.Call(srv.Addr(), testMsg{N: 2}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls kept failing after the connection was severed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := reg.Value("whopay_tcpbus_reconnects_total", nil); v < 1 {
		t.Errorf("reconnects_total = %v, want >= 1", v)
	}
}

// TestMuxMetrics: sequential calls to one destination reuse a single
// pooled connection, and the conn/dial/frame counters say so.
func TestMuxMetrics(t *testing.T) {
	cliReg := obs.NewRegistry()
	srvReg := obs.NewRegistry()
	srv, err := New(WithObs(srvReg)).Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := New(WithObs(cliReg)).Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := cli.Call(srv.Addr(), testMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(reg *obs.Registry, name string, want float64) {
		t.Helper()
		if v, ok := reg.Value(name, nil); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	check(cliReg, "whopay_tcpbus_calls_total", calls)
	check(cliReg, "whopay_tcpbus_dials_total", 1)
	check(cliReg, "whopay_tcpbus_reconnects_total", 0)
	check(cliReg, "whopay_tcpbus_outbound_conns", 1)
	check(cliReg, "whopay_tcpbus_frames_tx_total", calls)
	check(cliReg, "whopay_tcpbus_frames_rx_total", calls)
	check(srvReg, "whopay_tcpbus_open_conns", 1)
	check(srvReg, "whopay_tcpbus_frames_rx_total", calls)
	if tx, _ := cliReg.Value("whopay_tcpbus_bytes_tx_total", nil); tx <= 0 {
		t.Errorf("bytes_tx_total = %v, want > 0", tx)
	}
	// Closing the client releases the pooled connection.
	cli.Close()
	if v, _ := cliReg.Value("whopay_tcpbus_outbound_conns", nil); v != 0 {
		t.Errorf("outbound_conns after close = %v, want 0", v)
	}
}

// TestIdleConnReaped: a pooled connection with no traffic is closed after
// the idle timeout and the gauge returns to zero.
func TestIdleConnReaped(t *testing.T) {
	reg := obs.NewRegistry()
	n := New(WithObs(reg), WithIdleTimeout(150*time.Millisecond))
	srv, err := New().Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(srv.Addr(), testMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("whopay_tcpbus_outbound_conns", nil); v != 1 {
		t.Fatalf("outbound_conns = %v, want 1", v)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _ := reg.Value("whopay_tcpbus_outbound_conns", nil); v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The pool recovers: the next call dials fresh and succeeds.
	if _, err := cli.Call(srv.Addr(), testMsg{N: 2}); err != nil {
		t.Fatalf("call after reap: %v", err)
	}
}

// TestCallTimeoutIsTimeout: a handler that outlives the call budget yields
// an error the retry layer classifies as a timeout (Timeout() bool), and
// the timeout counter moves.
func TestCallTimeoutIsTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	n := New(WithObs(reg), WithCallTimeout(150*time.Millisecond))
	gate := make(chan struct{})
	srv, err := New().Listen("127.0.0.1:0", func(bus.Address, any) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// LIFO: the gate must open before srv.Close waits out the handler.
	defer close(gate)
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call(srv.Addr(), testMsg{})
	if err == nil {
		t.Fatal("expected timeout")
	}
	var to interface{ Timeout() bool }
	if !errors.As(err, &to) || !to.Timeout() {
		t.Fatalf("err = %v, want a Timeout() error", err)
	}
	if v, _ := reg.Value("whopay_tcpbus_timeouts_total", nil); v < 1 {
		t.Errorf("timeouts_total = %v, want >= 1", v)
	}
}

// TestRedialAfterServerDiedBeforeReplying: a destination whose first
// connection dies before any reply arrives (a node crashing mid-call) is,
// once a server is back on that address, served over one persistent
// connection — the early death leaves no per-destination mark behind.
func TestRedialAfterServerDiedBeforeReplying(t *testing.T) {
	// A server that reads the opening bytes of every connection and hangs
	// up without replying.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.ReadFull(conn, make([]byte, len(wire.Preamble)+4))
			conn.Close()
		}
	}()

	reg := obs.NewRegistry()
	cli, err := New(WithObs(reg)).Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(bus.Address(addr), testMsg{N: 1}); err == nil {
		t.Fatal("call to a server that hung up succeeded")
	}
	ln.Close()
	<-accepted

	srv, err := New().Listen(bus.Address(addr), func(_ bus.Address, msg any) (any, error) { return msg, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before, _ := reg.Value("whopay_tcpbus_dials_total", nil)
	for i := 0; i < 5; i++ {
		resp, err := cli.Call(srv.Addr(), testMsg{N: i})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := resp.(testMsg).N; got != i {
			t.Fatalf("call %d: N = %d", i, got)
		}
	}
	if after, _ := reg.Value("whopay_tcpbus_dials_total", nil); after-before != 1 {
		t.Errorf("dials across 5 calls = %v, want 1 (one persistent connection)", after-before)
	}
}

// unregistered is a payload type with no wire codec.
type unregistered struct{ X int }

// TestUnregisteredRequestPayload: a request whose type has no codec fails
// with an explicit error before anything is sent, and the connection keeps
// serving registered calls.
func TestUnregisteredRequestPayload(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New().Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) { return msg, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := New(WithObs(reg)).Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Call(srv.Addr(), unregistered{X: 1})
	if err == nil || !strings.Contains(err.Error(), "no wire codec for tcpbus.unregistered") {
		t.Fatalf("err = %v, want a no-wire-codec error", err)
	}
	resp, err := cli.Call(srv.Addr(), testMsg{N: 7})
	if err != nil {
		t.Fatalf("registered call after the rejected one: %v", err)
	}
	if got := resp.(testMsg).N; got != 7 {
		t.Fatalf("N = %d, want 7", got)
	}
	if v, _ := reg.Value("whopay_tcpbus_dials_total", nil); v != 1 {
		t.Errorf("dials_total = %v, want 1 (the connection survived)", v)
	}
}

// TestUnregisteredReplyPayload: a handler returning a type with no codec
// yields an error reply naming the type, not a hung call.
func TestUnregisteredReplyPayload(t *testing.T) {
	srv, err := New().Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return unregistered{X: 1}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := New(WithCallTimeout(5*time.Second)).Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call(srv.Addr(), testMsg{})
	var remote *bus.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no wire codec for tcpbus.unregistered") {
		t.Fatalf("err = %v, want a remote no-wire-codec error", err)
	}
}
