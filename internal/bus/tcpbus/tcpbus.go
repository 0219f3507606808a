// Package tcpbus implements bus.Network over real TCP sockets. It powers
// the networked daemons (cmd/whopayd): every WhoPay protocol message that
// flows over the in-memory bus in tests and simulations flows over TCP
// here, unchanged.
//
// Addresses are "host:port" strings. Calls multiplex over one persistent
// connection per destination: each request carries a 64-bit request ID in a
// length-prefixed binary frame (internal/wire, PROTOCOL.md "Wire format"),
// so concurrent calls pipeline on the same socket instead of paying a dial
// each. Every connection opens with wire.Preamble, the protocol-version
// check. A flusher goroutine coalesces back-to-back frames into one write;
// idle connections are reaped; a dead connection is redialed on the next
// call.
//
// Every payload type needs a codec registered with internal/wire; the core
// package registers all protocol messages in RegisterWireTypes. A payload
// with no codec fails the call ("no wire codec for T") on the side that
// tried to encode it.
package tcpbus

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/obs"
	"whopay/internal/wire"
)

// Network is a TCP-backed bus.Network. The zero value is not usable; use
// New.
type Network struct {
	dialTimeout time.Duration
	callTimeout time.Duration
	idleTimeout time.Duration
	reg         *obs.Registry

	// obs handles; nil (no-op) unless WithObs is given.
	mConnsIn    *obs.Gauge
	mConnsOut   *obs.Gauge
	mCalls      *obs.Counter
	mDials      *obs.Counter
	mDialErrs   *obs.Counter
	mReconnects *obs.Counter
	mTimeouts   *obs.Counter
	mFramesTx   *obs.Counter
	mFramesRx   *obs.Counter
	mBytesTx    *obs.Counter
	mBytesRx    *obs.Counter
}

var _ bus.Network = (*Network)(nil)

// writeTimeout bounds each side's write of a batch of frames. A peer that
// stops draining its receive buffer stalls our write; this deadline frees
// the goroutine instead of wedging on it.
const writeTimeout = 10 * time.Second

// Option configures a Network.
type Option func(*Network)

// WithDialTimeout sets the TCP dial timeout (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(n *Network) { n.dialTimeout = d }
}

// WithCallTimeout sets the caller's budget for the whole exchange — it
// bounds the wait for the reply, which includes the remote handler's
// execution time (default 30s).
func WithCallTimeout(d time.Duration) Option {
	return func(n *Network) { n.callTimeout = d }
}

// WithIdleTimeout bounds how long an accepted connection may take to
// deliver its complete request (default 10s). A peer that connects and
// then goes silent — or trickles bytes — is cut off at this deadline, so
// hung or malicious clients cannot pin server goroutines and file
// descriptors indefinitely. It also sets the pooled-connection idle
// lifetime: an outbound connection with no calls for this long is reaped.
func WithIdleTimeout(d time.Duration) Option {
	return func(n *Network) { n.idleTimeout = d }
}

// WithObs enables transport metrics on reg: open inbound and outbound
// connections, calls, dials, dial failures, reconnects, deadline timeouts,
// and frame/byte throughput. It never changes what goes on the wire. Nil
// reg (the default) leaves the transport uninstrumented.
func WithObs(reg *obs.Registry) Option {
	return func(n *Network) { n.reg = reg }
}

// New returns a TCP Network.
func New(opts ...Option) *Network {
	n := &Network{
		dialTimeout: 5 * time.Second,
		callTimeout: 30 * time.Second,
		idleTimeout: 10 * time.Second,
	}
	for _, o := range opts {
		o(n)
	}
	if n.reg != nil {
		n.reg.Help("whopay_tcpbus_open_conns", "Accepted connections currently being served.")
		n.reg.Help("whopay_tcpbus_outbound_conns", "Pooled outbound connections currently open.")
		n.reg.Help("whopay_tcpbus_calls_total", "Outbound calls attempted.")
		n.reg.Help("whopay_tcpbus_dials_total", "Outbound dials attempted.")
		n.reg.Help("whopay_tcpbus_dial_errors_total", "Outbound dials that failed.")
		n.reg.Help("whopay_tcpbus_reconnects_total", "Dials that replaced a previously live pooled connection.")
		n.reg.Help("whopay_tcpbus_timeouts_total", "Calls that hit a read/write deadline.")
		n.reg.Help("whopay_tcpbus_frames_tx_total", "Wire frames sent.")
		n.reg.Help("whopay_tcpbus_frames_rx_total", "Wire frames received.")
		n.reg.Help("whopay_tcpbus_bytes_tx_total", "Wire frame bytes sent (including length prefixes).")
		n.reg.Help("whopay_tcpbus_bytes_rx_total", "Wire frame bytes received (including length prefixes).")
		n.mConnsIn = n.reg.Gauge("whopay_tcpbus_open_conns", nil)
		n.mConnsOut = n.reg.Gauge("whopay_tcpbus_outbound_conns", nil)
		n.mCalls = n.reg.Counter("whopay_tcpbus_calls_total", nil)
		n.mDials = n.reg.Counter("whopay_tcpbus_dials_total", nil)
		n.mDialErrs = n.reg.Counter("whopay_tcpbus_dial_errors_total", nil)
		n.mReconnects = n.reg.Counter("whopay_tcpbus_reconnects_total", nil)
		n.mTimeouts = n.reg.Counter("whopay_tcpbus_timeouts_total", nil)
		n.mFramesTx = n.reg.Counter("whopay_tcpbus_frames_tx_total", nil)
		n.mFramesRx = n.reg.Counter("whopay_tcpbus_frames_rx_total", nil)
		n.mBytesTx = n.reg.Counter("whopay_tcpbus_bytes_tx_total", nil)
		n.mBytesRx = n.reg.Counter("whopay_tcpbus_bytes_rx_total", nil)
	}
	return n
}

// countTimeout bumps the timeout counter when err is a deadline expiry.
func (n *Network) countTimeout(err error) {
	if n.mTimeouts == nil {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		n.mTimeouts.Inc()
	}
}

// timeoutError is the synthetic error for a call that outlived its reply
// budget on a multiplexed connection (no socket deadline fires for one
// call among many). It satisfies net.Error so the retry layer and the load
// driver classify it exactly like a socket deadline expiry.
type timeoutError struct{ d time.Duration }

func (e *timeoutError) Error() string   { return fmt.Sprintf("call timed out after %v", e.d) }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// connFailedError marks errors delivered to in-flight calls because their
// connection died (read/write failure, reap, endpoint close).
type connFailedError struct{ err error }

func (e *connFailedError) Error() string { return e.err.Error() }
func (e *connFailedError) Unwrap() error { return e.err }

// Is reports a died connection as ErrUnreachable: the pipe to the
// destination is gone and the next attempt redials — the same transient
// condition as a failed dial, and exactly what a caller riding a broker
// failover needs to keep retrying toward the promoted leader.
func (e *connFailedError) Is(target error) bool { return target == bus.ErrUnreachable }

// Listen implements bus.Network: it binds a TCP listener on addr and serves
// requests with h until the endpoint is closed. Pass ":0" style addresses
// to pick a free port; Endpoint.Addr reports the bound address.
func (n *Network) Listen(addr bus.Address, h bus.Handler) (bus.Endpoint, error) {
	if h == nil {
		return nil, errors.New("tcpbus: nil handler")
	}
	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return nil, fmt.Errorf("tcpbus: listen %s: %w", addr, err)
	}
	ep := &endpoint{
		net:     n,
		ln:      ln,
		addr:    bus.Address(ln.Addr().String()),
		handler: h,
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		pool:    make(map[bus.Address]*connSlot),
	}
	ep.wg.Add(2)
	go ep.serve()
	go ep.reap()
	return ep, nil
}

type endpoint struct {
	net     *Network
	ln      net.Listener
	addr    bus.Address
	handler bus.Handler

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
	conns  map[net.Conn]struct{}

	poolMu sync.Mutex
	pool   map[bus.Address]*connSlot
}

// track registers a connection so Close can sever it; it reports false
// (and closes the conn) when the endpoint is already shutting down. extra
// goroutines are added to the endpoint's wait group inside the same
// critical section, so a successful track's Add is ordered before Close's
// Wait.
func (e *endpoint) track(conn net.Conn, goroutines int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		conn.Close()
		return false
	}
	e.conns[conn] = struct{}{}
	if goroutines > 0 {
		e.wg.Add(goroutines)
	}
	return true
}

func (e *endpoint) untrack(conn net.Conn) {
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
}

var _ bus.Endpoint = (*endpoint)(nil)

// Addr implements bus.Endpoint.
func (e *endpoint) Addr() bus.Address { return e.addr }

func (e *endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Accept-failure backoff bounds: a persistent error (fd exhaustion, a
// half-dead listener) must not spin the accept loop at 100% CPU.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = 100 * time.Millisecond
)

func (e *endpoint) serve() {
	defer e.wg.Done()
	var backoff time.Duration
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			// Transient accept failure; back off exponentially so a
			// persistent error cannot spin the loop, and stay
			// responsive to Close while sleeping.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-e.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(conn)
		}()
	}
}

// reap closes pooled outbound connections that have sat idle (no calls in
// flight, none recently) past the idle timeout, returning their file
// descriptors instead of pinning one per peer forever. The next call to
// that peer redials.
func (e *endpoint) reap() {
	defer e.wg.Done()
	interval := e.net.idleTimeout / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			e.poolMu.Lock()
			slots := make([]*connSlot, 0, len(e.pool))
			for _, s := range e.pool {
				slots = append(slots, s)
			}
			e.poolMu.Unlock()
			cutoff := time.Now().Add(-e.net.idleTimeout).UnixNano()
			for _, s := range slots {
				s.mu.Lock()
				pc := s.pc
				s.mu.Unlock()
				if pc != nil && pc.idleSince(cutoff) {
					pc.fail(errConnIdle)
				}
			}
		}
	}
}

var errConnIdle = errors.New("tcpbus: connection reaped while idle")

// serveConn checks the connection's preamble, then serves its frames. A
// connection that opens with anything but wire.Preamble speaks another
// protocol version and is dropped.
func (e *endpoint) serveConn(conn net.Conn) {
	if !e.track(conn, 0) {
		return
	}
	defer e.untrack(conn)
	defer conn.Close()
	e.net.mConnsIn.Add(1)
	defer e.net.mConnsIn.Add(-1)
	// The idle deadline covers the preamble: a client that connects and goes
	// silent, or trickles one byte at a time, is cut off here instead of
	// pinning this goroutine for the full call timeout.
	_ = conn.SetReadDeadline(time.Now().Add(e.net.idleTimeout))
	br := bufio.NewReader(conn)
	var pre [len(wire.Preamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != wire.Preamble {
		return
	}
	e.serveFramedConn(conn, br)
}

// serveFramedConn serves a multiplexed framed connection: requests are read
// and decoded in order on this goroutine (reusing one frame buffer), each
// handler runs on its own goroutine, and replies flow through a coalescing
// writer as they finish — so a slow handler never blocks requests queued
// behind it (pipelining).
func (e *endpoint) serveFramedConn(conn net.Conn, br *bufio.Reader) {
	n := e.net
	w := newFrameWriter(conn, n)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.wg.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.wg.Done()
		w.loop()
	}()
	defer w.close()
	// Between frames a pooled client connection legitimately sits idle, so
	// the inter-frame deadline is a multiple of the single-request idle
	// budget (clients reap their side at 1x, so they normally hang up
	// first). Once a frame's length arrives its body must land within the
	// idle timeout — the trickler cutoff.
	interIdle := n.idleTimeout * 3
	var scratch []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(interIdle))
		body, s2, err := wire.ReadFrame(br, scratch, func(int) {
			_ = conn.SetReadDeadline(time.Now().Add(n.idleTimeout))
		})
		scratch = s2
		if err != nil {
			return
		}
		f, err := wire.ParseFrame(body)
		if err != nil || f.Kind != wire.KindRequest {
			// Protocol violation: this peer cannot be trusted to keep
			// frame boundaries, so the connection dies.
			return
		}
		n.mFramesRx.Inc()
		n.mBytesRx.Add(int64(len(body)) + 4)
		// Decode synchronously: the payload aliases scratch, which the next
		// ReadFrame will overwrite. Decoded values copy out of it.
		payload, derr := decodeFramePayload(&f)
		reqID, from := f.ReqID, f.From
		if derr != nil {
			// A frame with a bad payload is that caller's problem, not the
			// connection's: framing is intact, so reply with the error and
			// keep serving.
			w.enqueue(encodeReplyFrame(reqID, nil, fmt.Errorf("tcpbus: decoding request: %v", derr)))
			continue
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			resp, herr := e.handler(bus.Address(from), payload)
			w.enqueue(encodeReplyFrame(reqID, resp, herr))
		}()
	}
}

// decodeFramePayload turns a frame's payload bytes into the call payload:
// nil for tag 0, else the codec registered under the tag.
func decodeFramePayload(f *wire.Frame) (any, error) {
	if f.Tag == 0 {
		return nil, nil
	}
	return wire.Decode(f.Tag, f.Payload)
}

// appendPayloadFrame appends the frame for f carrying msg, which must be nil
// or of a type with a registered codec. The returned slice extends dst (a
// pooled buffer on the hot path).
func appendPayloadFrame(dst []byte, f *wire.Frame, msg any) ([]byte, error) {
	if msg == nil {
		return wire.AppendFrame(dst, f, nil)
	}
	e, ok := wire.ByValue(msg)
	if !ok {
		return dst, fmt.Errorf("no wire codec for %T", msg)
	}
	f.Tag = e.Tag
	return wire.AppendFrame(dst, f, func(b []byte) ([]byte, error) {
		return e.Enc(b, msg)
	})
}

// encodeReplyFrame builds the reply frame for reqID into a pooled buffer.
// Reply encoding failures degrade to an error reply so the caller is never
// left waiting for a frame that cannot be produced.
func encodeReplyFrame(reqID uint64, resp any, herr error) []byte {
	buf := wire.GetBuf()
	f := wire.Frame{Kind: wire.KindReply, ReqID: reqID}
	if herr != nil {
		f.Flags = wire.FlagError
		f.ErrMsg = herr.Error()
		f.ErrCode = bus.ErrorCode(herr)
		out, err := wire.AppendFrame(buf, &f, nil)
		if err == nil {
			return out
		}
		// An error reply can only fail by exceeding the frame size cap;
		// truncate the message and retry once.
		f.ErrMsg = "tcpbus: error message exceeded frame size"
		out, _ = wire.AppendFrame(buf, &f, nil)
		return out
	}
	out, err := appendPayloadFrame(buf, &f, resp)
	if err != nil {
		return encodeReplyFrameError(buf, reqID, fmt.Errorf("tcpbus: encoding reply: %v", err))
	}
	return out
}

func encodeReplyFrameError(buf []byte, reqID uint64, err error) []byte {
	f := wire.Frame{Kind: wire.KindReply, ReqID: reqID, Flags: wire.FlagError,
		ErrMsg: err.Error(), ErrCode: bus.ErrorCode(err)}
	out, _ := wire.AppendFrame(buf[:0], &f, nil)
	return out
}

// frameWriter is the coalescing flusher shared by both connection
// directions: producers enqueue encoded frames (pooled buffers, ownership
// transfers), one goroutine drains the queue in batches through a buffered
// writer with a single deadline and flush per batch, then returns the
// buffers to the pool. Back-to-back frames — pipelined requests, replies
// finishing together — ride one syscall.
type frameWriter struct {
	conn net.Conn
	net  *Network

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []queuedWrite
	closed bool

	onErr func(error) // invoked once, outside mu, when a write fails
}

// queuedWrite is one buffer awaiting the flusher; raw marks bytes that are
// not a frame (the connection preamble) so the frame counters stay honest.
type queuedWrite struct {
	b   []byte
	raw bool
}

func newFrameWriter(conn net.Conn, n *Network) *frameWriter {
	w := &frameWriter{conn: conn, net: n}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue hands buf to the writer. On a closed writer the buffer is
// returned to the pool and false is reported.
func (w *frameWriter) enqueue(buf []byte) bool { return w.push(buf, false) }

// enqueueRaw hands non-frame bytes (the preamble) to the writer.
func (w *frameWriter) enqueueRaw(buf []byte) bool { return w.push(buf, true) }

func (w *frameWriter) push(buf []byte, raw bool) bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		wire.PutBuf(buf)
		return false
	}
	w.queue = append(w.queue, queuedWrite{b: buf, raw: raw})
	w.cond.Signal()
	w.mu.Unlock()
	return true
}

// close stops the loop and frees queued frames.
func (w *frameWriter) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	freed := w.queue
	w.queue = nil
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, q := range freed {
		wire.PutBuf(q.b)
	}
}

func (w *frameWriter) loop() {
	bw := bufio.NewWriter(w.conn)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		var werr error
		var nbytes, nframes int
		for _, q := range batch {
			if werr == nil {
				_, werr = bw.Write(q.b)
				nbytes += len(q.b)
				if !q.raw {
					nframes++
				}
			}
			wire.PutBuf(q.b)
		}
		if werr == nil {
			werr = bw.Flush()
		}
		if werr != nil {
			w.net.countTimeout(werr)
			w.close()
			if w.onErr != nil {
				w.onErr(werr)
			}
			return
		}
		w.net.mFramesTx.Add(int64(nframes))
		w.net.mBytesTx.Add(int64(nbytes))
	}
}

// callResult is one reply delivered to a waiting call.
type callResult struct {
	payload any
	err     error
}

// connSlot is the pool entry for one destination. Its mutex serializes
// dials, so a burst of calls to a cold peer produces one connection.
type connSlot struct {
	mu      sync.Mutex
	pc      *peerConn
	everHad bool // a connection existed before: the next dial is a reconnect
}

// peerConn is one live multiplexed connection to a destination: calls
// register a reply channel under a fresh request ID, frames go out through
// the coalescing writer, and a read loop routes reply frames back by ID.
type peerConn struct {
	ep   *endpoint
	addr bus.Address
	conn net.Conn
	w    *frameWriter

	nextID   atomic.Uint64
	lastUsed atomic.Int64 // UnixNano of the most recent call activity

	mu      sync.Mutex
	err     error // set once when the connection dies
	pending map[uint64]chan callResult

	failOnce sync.Once
}

func newPeerConn(e *endpoint, addr bus.Address, conn net.Conn) *peerConn {
	pc := &peerConn{
		ep:      e,
		addr:    addr,
		conn:    conn,
		pending: make(map[uint64]chan callResult),
	}
	pc.w = newFrameWriter(conn, e.net)
	pc.w.onErr = func(err error) { pc.fail(fmt.Errorf("writing request: %w", err)) }
	pc.touch()
	return pc
}

func (pc *peerConn) touch() { pc.lastUsed.Store(time.Now().UnixNano()) }

func (pc *peerConn) alive() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err == nil
}

// idleSince reports whether the connection has no calls in flight and no
// activity after the cutoff.
func (pc *peerConn) idleSince(cutoffNano int64) bool {
	pc.mu.Lock()
	inFlight := len(pc.pending)
	pc.mu.Unlock()
	return inFlight == 0 && pc.lastUsed.Load() < cutoffNano
}

// fail kills the connection once: marks it dead, severs the socket, stops
// the writer, fails every in-flight call, and clears the pool slot so the
// next call redials.
func (pc *peerConn) fail(err error) {
	pc.failOnce.Do(func() {
		wrapped := &connFailedError{err: err}
		pc.mu.Lock()
		pc.err = wrapped
		pending := pc.pending
		pc.pending = nil
		pc.mu.Unlock()
		pc.conn.Close()
		pc.w.close()
		for _, ch := range pending {
			ch <- callResult{err: wrapped}
		}
		pc.ep.clearSlot(pc.addr, pc)
		pc.ep.untrack(pc.conn)
		pc.ep.net.mConnsOut.Add(-1)
	})
}

func (e *endpoint) clearSlot(addr bus.Address, pc *peerConn) {
	e.poolMu.Lock()
	slot := e.pool[addr]
	e.poolMu.Unlock()
	if slot == nil {
		return
	}
	slot.mu.Lock()
	if slot.pc == pc {
		slot.pc = nil
	}
	slot.mu.Unlock()
}

// readLoop routes reply frames to their calls by request ID.
func (pc *peerConn) readLoop() {
	n := pc.ep.net
	br := bufio.NewReader(pc.conn)
	var scratch []byte
	for {
		body, s2, err := wire.ReadFrame(br, scratch, nil)
		scratch = s2
		if err != nil {
			pc.fail(fmt.Errorf("reading reply: %w", err))
			return
		}
		f, err := wire.ParseFrame(body)
		if err != nil || f.Kind != wire.KindReply {
			pc.fail(fmt.Errorf("reading reply: malformed frame: %v", err))
			return
		}
		n.mFramesRx.Inc()
		n.mBytesRx.Add(int64(len(body)) + 4)
		var res callResult
		if f.Flags&wire.FlagError != 0 {
			res.err = &bus.RemoteError{Msg: f.ErrMsg, Code: f.ErrCode}
		} else if res.payload, err = decodeFramePayload(&f); err != nil {
			res = callResult{err: err}
		}
		pc.mu.Lock()
		ch := pc.pending[f.ReqID]
		delete(pc.pending, f.ReqID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- res
		}
		pc.touch()
	}
}

// roundTrip issues one call over the multiplexed connection.
func (pc *peerConn) roundTrip(msg any) (any, error) {
	n := pc.ep.net
	pc.touch()
	id := pc.nextID.Add(1)
	ch := make(chan callResult, 1)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return nil, err
	}
	pc.pending[id] = ch
	pc.mu.Unlock()

	f := wire.Frame{Kind: wire.KindRequest, ReqID: id, From: string(pc.ep.addr)}
	buf, err := appendPayloadFrame(wire.GetBuf(), &f, msg)
	if err != nil {
		pc.dropPending(id)
		wire.PutBuf(buf)
		return nil, fmt.Errorf("tcpbus: encoding request to %s: %w", pc.addr, err)
	}
	if !pc.w.enqueue(buf) {
		pc.dropPending(id)
		pc.mu.Lock()
		err := pc.err
		pc.mu.Unlock()
		if err == nil {
			err = errors.New("connection closed")
		}
		return nil, fmt.Errorf("tcpbus: reading reply from %s: %w", pc.addr, err)
	}
	// The reply wait covers the remote handler's execution, so it gets the
	// whole call budget. No socket deadline can bound one call among many
	// on a shared connection, so the budget is a per-call timer.
	timer := time.NewTimer(n.callTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			var remote *bus.RemoteError
			if errors.As(res.err, &remote) {
				return nil, res.err
			}
			return nil, fmt.Errorf("tcpbus: reading reply from %s: %w", pc.addr, res.err)
		}
		return res.payload, nil
	case <-timer.C:
		pc.dropPending(id)
		n.mTimeouts.Inc()
		return nil, fmt.Errorf("tcpbus: reading reply from %s: %w", pc.addr, &timeoutError{n.callTimeout})
	}
}

func (pc *peerConn) dropPending(id uint64) {
	pc.mu.Lock()
	delete(pc.pending, id)
	pc.mu.Unlock()
}

// getConn returns the live pooled connection for to, dialing one (and
// sending the framed preamble) if none exists.
func (e *endpoint) getConn(to bus.Address) (*peerConn, error) {
	e.poolMu.Lock()
	slot := e.pool[to]
	if slot == nil {
		slot = &connSlot{}
		e.pool[to] = slot
	}
	e.poolMu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if pc := slot.pc; pc != nil && pc.alive() {
		return pc, nil
	}
	n := e.net
	n.mDials.Inc()
	if slot.everHad {
		n.mReconnects.Inc()
	}
	conn, err := net.DialTimeout("tcp", string(to), n.dialTimeout)
	if err != nil {
		n.mDialErrs.Inc()
		return nil, fmt.Errorf("%w: %s: %v", bus.ErrUnreachable, to, err)
	}
	// Registering the conn and reserving the goroutine slots happens inside
	// track's critical section so Close cannot finish waiting between them.
	if !e.track(conn, 2) {
		return nil, bus.ErrClosed
	}
	pc := newPeerConn(e, to, conn)
	// The preamble rides the first frame's write batch.
	pre := append(wire.GetBuf(), wire.Preamble[:]...)
	pc.w.enqueueRaw(pre)
	slot.pc = pc
	slot.everHad = true
	n.mConnsOut.Add(1)
	go func() {
		defer e.wg.Done()
		pc.readLoop()
	}()
	go func() {
		defer e.wg.Done()
		pc.w.loop()
		// The writer exits on write failure (onErr already ran) or on
		// close; either way the connection is done.
	}()
	return pc, nil
}

// Call implements bus.Endpoint.
func (e *endpoint) Call(to bus.Address, msg any) (any, error) {
	if e.isClosed() {
		return nil, bus.ErrClosed
	}
	e.net.mCalls.Inc()
	pc, err := e.getConn(to)
	if err != nil {
		return nil, err
	}
	return pc.roundTrip(msg)
}

// Close implements bus.Endpoint.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	// Sever in-flight connections so Close does not wait out their
	// deadlines — a hung peer must not delay shutdown.
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}
