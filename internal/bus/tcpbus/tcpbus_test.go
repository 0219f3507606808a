package tcpbus

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/wire"
)

type testMsg struct {
	Kind string
	N    int
}

func init() {
	wire.Register(200, "tcpbus_test.testMsg", testMsg{},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(testMsg)
			dst = wire.AppendString(dst, m.Kind)
			return wire.AppendInt(dst, int64(m.N)), nil
		},
		func(d *wire.Decoder) (any, error) {
			var m testMsg
			var err error
			if m.Kind, err = d.String(); err != nil {
				return nil, err
			}
			n, err := d.Int()
			m.N = int(n)
			return m, err
		})
}

func TestCallRoundTrip(t *testing.T) {
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(from bus.Address, msg any) (any, error) {
		m, ok := msg.(testMsg)
		if !ok {
			return nil, errors.New("bad type")
		}
		m.N++
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
	resp, err := cli.Call(srv.Addr(), testMsg{Kind: "inc", N: 41})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.(testMsg)
	if !ok || got.N != 42 {
		t.Fatalf("resp = %#v", resp)
	}
}

func TestFromAddressDelivered(t *testing.T) {
	n := New()
	var gotFrom bus.Address
	srv, err := n.Listen("127.0.0.1:0", func(from bus.Address, msg any) (any, error) {
		gotFrom = from
		return testMsg{}, nil
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
	if _, err := cli.Call(srv.Addr(), testMsg{}); err != nil {
		t.Fatal(err)
	}
	if gotFrom != cli.Addr() {
		t.Fatalf("from = %s, want %s", gotFrom, cli.Addr())
	}
}

func TestRemoteError(t *testing.T) {
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) {
		return nil, errors.New("coin not valid")
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
	_, err = cli.Call(srv.Addr(), testMsg{})
	var remote *bus.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "coin not valid") {
		t.Fatalf("Msg = %q", remote.Msg)
	}
}

func TestUnreachable(t *testing.T) {
	n := New(WithDialTimeout(200 * time.Millisecond))
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Port 1 on localhost: connection refused.
	if _, err := cli.Call("127.0.0.1:1", testMsg{}); !errors.Is(err, bus.ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
}

func TestClosedEndpointRejectsCalls(t *testing.T) {
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return testMsg{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(srv.Addr(), testMsg{}); !errors.Is(err, bus.ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Server is gone; new calls fail as unreachable.
	cli2, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli2.Call(srv.Addr(), testMsg{}); !errors.Is(err, bus.ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(from bus.Address, msg any) (any, error) {
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
	const workers, each = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := cli.Call(srv.Addr(), testMsg{Kind: "c", N: w*1000 + i})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.(testMsg).N != w*1000+i {
					t.Errorf("mismatched response")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNilHandlerRejected(t *testing.T) {
	n := New()
	if _, err := n.Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("Listen accepted nil handler")
	}
}

// errTestBusy is a package-local sentinel standing in for core's protocol
// sentinels (which tcpbus cannot import without a cycle).
var errTestBusy = errors.New("tcpbus_test: busy")

// TestSentinelCodeSurvivesTCPHop: a handler error matching a registered
// sentinel must satisfy errors.Is on the caller's side of the TCP hop.
func TestSentinelCodeSurvivesTCPHop(t *testing.T) {
	bus.RegisterErrorCode("tcpbus_test.busy", errTestBusy)
	n := New()
	srv, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) {
		return nil, fmt.Errorf("wrapped: %w", errTestBusy)
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
	_, err = cli.Call(srv.Addr(), testMsg{})
	if err == nil {
		t.Fatal("expected error")
	}
	var remote *bus.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %T %v, want *bus.RemoteError", err, err)
	}
	if remote.Code != "tcpbus_test.busy" {
		t.Fatalf("code = %q", remote.Code)
	}
	if !errors.Is(err, errTestBusy) {
		t.Fatalf("errors.Is lost the sentinel across the hop: %v", err)
	}
	// An unregistered error still crosses as a plain remote error.
	if errors.Is(err, errors.New("other")) {
		t.Fatal("errors.Is matched an unrelated error")
	}
}

// TestSlowClientDoesNotWedgeServer: connections that never deliver a
// request — silent or trickling bytes — are cut off by the idle timeout,
// and legitimate calls keep succeeding while they hang around. This is the
// "hung peer must not wedge the broker" guarantee.
func TestSlowClientDoesNotWedgeServer(t *testing.T) {
	n := New(WithIdleTimeout(100 * time.Millisecond))
	srv, err := n.Listen("127.0.0.1:0", func(_ bus.Address, msg any) (any, error) {
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A silent client, and a trickler that opens a framed connection, then
	// stalls two bytes into a frame whose length it has declared.
	silent, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	trickler, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer trickler.Close()
	partial := append(wire.Preamble[:], 0, 0, 0, 64, 'W', 'P')
	if _, err := trickler.Write(partial); err != nil {
		t.Fatal(err)
	}

	// A real call succeeds while the slow connections are still open.
	cli, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(srv.Addr(), testMsg{Kind: "live", N: 1}); err != nil {
		t.Fatalf("call wedged behind slow clients: %v", err)
	}

	// The server severs both slow connections within the idle timeout: our
	// next read observes the close instead of blocking forever.
	for name, conn := range map[string]net.Conn{"silent": silent, "trickler": trickler} {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s connection still open past the idle timeout", name)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s connection not severed by the server", name)
		}
	}
}

// TestCloseSeversHungConnections: Close must not wait out the idle
// deadline of a peer that is sitting on an open connection.
func TestCloseSeversHungConnections(t *testing.T) {
	n := New(WithIdleTimeout(time.Hour)) // deadline alone would block Close
	srv, err := n.Listen("127.0.0.1:0", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the server accept the connection before closing.
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung behind an idle connection")
	}
}

// countingListener wraps a (pre-closed) listener and counts Accept calls.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (c *countingListener) Accept() (net.Conn, error) {
	c.accepts.Add(1)
	return c.Listener.Accept()
}

// TestServeBacksOffOnPersistentAcceptError: a listener that fails every
// Accept (here: pre-closed out from under the endpoint) must not spin the
// serve loop. Before the backoff fix this produced hundreds of thousands of
// Accept calls in 60ms; with 1ms→100ms exponential backoff the count stays
// tiny.
func TestServeBacksOffOnPersistentAcceptError(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raw.Close() // every Accept now fails immediately
	cl := &countingListener{Listener: raw}
	e := &endpoint{
		net:     New(),
		ln:      cl,
		addr:    bus.Address(raw.Addr().String()),
		handler: func(bus.Address, any) (any, error) { return nil, nil },
		done:    make(chan struct{}),
	}
	e.wg.Add(1)
	go e.serve()
	time.Sleep(60 * time.Millisecond)
	close(e.done)
	e.wg.Wait()
	// 60ms under 1,2,4,...,100ms backoff allows ~8 attempts; leave slack.
	if n := cl.accepts.Load(); n > 20 {
		t.Fatalf("accept loop spun %d times in 60ms; backoff not applied", n)
	} else if n == 0 {
		t.Fatal("serve never called Accept")
	}
}
