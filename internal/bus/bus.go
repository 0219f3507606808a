// Package bus abstracts peer-to-peer messaging for WhoPay. Every protocol
// entity (broker, judge, peers, DHT nodes, indirection servers) listens on
// an Address and exchanges synchronous request/response messages.
//
// Two implementations exist: Memory (this file) — an in-process network with
// per-address message counters and offline simulation, used by tests and by
// the load simulator (the paper's communication cost metric is "number of
// messages sent/received", which Memory counts exactly) — and the TCP
// transport in the tcpbus subpackage used by the networked daemons.
package bus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Address names an endpoint on a Network.
type Address string

// Handler processes one request and produces a response. Handlers may call
// other endpoints on the same network; implementations must therefore not
// hold network-level locks while a handler runs.
type Handler func(from Address, msg any) (any, error)

// Endpoint is a registered network participant.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Address
	// Call sends msg to the endpoint listening at to and waits for its
	// response.
	Call(to Address, msg any) (any, error)
	// Close deregisters the endpoint.
	Close() error
}

// Network registers endpoints.
type Network interface {
	Listen(addr Address, h Handler) (Endpoint, error)
}

// Caller is the outbound half of an Endpoint. Decorators (the retry layer,
// instrumentation) wrap a Caller without owning the endpoint's lifecycle.
type Caller interface {
	Call(to Address, msg any) (any, error)
}

// Errors returned by Network implementations.
var (
	// ErrUnreachable is returned by Call when the destination is unknown
	// or offline.
	ErrUnreachable = errors.New("bus: destination unreachable")
	// ErrClosed is returned by Call on a closed endpoint.
	ErrClosed = errors.New("bus: endpoint closed")
	// ErrAddressInUse is returned by Listen for duplicate addresses.
	ErrAddressInUse = errors.New("bus: address already in use")
)

// RemoteError carries an application error back across a Call. Handlers'
// returned errors are wrapped so callers can distinguish transport failure
// (ErrUnreachable) from protocol rejection.
//
// Code, when non-empty, is the machine-readable code of a sentinel error
// registered with RegisterErrorCode; Unwrap resolves it so errors.Is works
// on protocol sentinels even after a hop through a transport that can only
// carry strings (tcpbus).
type RemoteError struct {
	Msg  string
	Code string

	// cause is the handler's original error when the transport kept it
	// in-process (Memory); it preserves the full chain for errors.Is.
	cause error
}

// Error implements error.
func (e *RemoteError) Error() string { return "bus: remote error: " + e.Msg }

// Unwrap exposes the handler's error — the in-process cause when available,
// otherwise the sentinel registered for Code.
func (e *RemoteError) Unwrap() error {
	if e.cause != nil {
		return e.cause
	}
	if e.Code != "" {
		return sentinelForCode(e.Code)
	}
	return nil
}

// WrapRemote wraps a handler error for return to a caller, capturing the
// sentinel code (for wire transports) and the original chain (in-process).
func WrapRemote(err error) *RemoteError {
	return &RemoteError{Msg: err.Error(), Code: ErrorCode(err), cause: err}
}

// codeRegistry maps stable wire codes to sentinel errors. Registration
// happens in package inits (core registers its protocol sentinels), so a
// plain mutex suffices.
var (
	codeMu       sync.RWMutex
	codeToErr    = map[string]error{}
	registeredIn []string // registration order, for deterministic ErrorCode
)

// RegisterErrorCode maps a stable machine-readable code to a sentinel
// error. Transports carry the code across the wire so errors.Is(err,
// sentinel) keeps working remotely. Codes must be unique; re-registering a
// code replaces its sentinel.
func RegisterErrorCode(code string, sentinel error) {
	if code == "" || sentinel == nil {
		return
	}
	codeMu.Lock()
	defer codeMu.Unlock()
	if _, exists := codeToErr[code]; !exists {
		registeredIn = append(registeredIn, code)
	}
	codeToErr[code] = sentinel
}

// ErrorCode returns the registered code for the first sentinel err matches
// (in registration order), or "" when none does.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	codeMu.RLock()
	defer codeMu.RUnlock()
	for _, code := range registeredIn {
		if errors.Is(err, codeToErr[code]) {
			return code
		}
	}
	return ""
}

// sentinelForCode resolves a wire code back to its sentinel (nil if
// unknown — e.g. peers running different versions).
func sentinelForCode(code string) error {
	codeMu.RLock()
	defer codeMu.RUnlock()
	return codeToErr[code]
}

// MsgStats counts one endpoint's traffic. The paper's communication cost is
// proportional to messages sent/received; a request and its response each
// count as one message for both parties.
type MsgStats struct {
	Sent     int64
	Received int64
}

// Total returns sent plus received.
func (s MsgStats) Total() int64 { return s.Sent + s.Received }

type memNode struct {
	handler Handler
	online  atomic.Bool
	sent    atomic.Int64
	recv    atomic.Int64
}

// Memory is an in-process Network. Calls are synchronous function
// invocations; per-address traffic counters and an online/offline switch
// support the churn simulation. Safe for concurrent use.
type Memory struct {
	mu    sync.RWMutex
	nodes map[Address]*memNode
}

var _ Network = (*Memory)(nil)

// NewMemory returns an empty in-process network.
func NewMemory() *Memory {
	return &Memory{nodes: make(map[Address]*memNode)}
}

// Listen implements Network. New endpoints start online.
func (m *Memory) Listen(addr Address, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, errors.New("bus: nil handler")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddressInUse, addr)
	}
	n := &memNode{handler: h}
	n.online.Store(true)
	m.nodes[addr] = n
	return &memEndpoint{net: m, addr: addr, node: n}, nil
}

// SetOnline toggles reachability of addr. Calls to an offline address fail
// with ErrUnreachable; the endpoint itself may still initiate calls (the
// simulator never lets offline peers initiate, but the bus does not police
// that).
func (m *Memory) SetOnline(addr Address, online bool) {
	m.mu.RLock()
	n := m.nodes[addr]
	m.mu.RUnlock()
	if n != nil {
		n.online.Store(online)
	}
}

// Online reports whether addr is registered and online.
func (m *Memory) Online(addr Address) bool {
	m.mu.RLock()
	n := m.nodes[addr]
	m.mu.RUnlock()
	return n != nil && n.online.Load()
}

// Stats returns the traffic counters for addr (zero stats if unknown).
func (m *Memory) Stats(addr Address) MsgStats {
	m.mu.RLock()
	n := m.nodes[addr]
	m.mu.RUnlock()
	if n == nil {
		return MsgStats{}
	}
	return MsgStats{Sent: n.sent.Load(), Received: n.recv.Load()}
}

// TotalMessages returns the number of messages carried so far (each
// request and each response is one message).
func (m *Memory) TotalMessages() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, n := range m.nodes {
		total += n.sent.Load()
	}
	return total
}

func (m *Memory) lookup(addr Address) *memNode {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nodes[addr]
}

type memEndpoint struct {
	net    *Memory
	addr   Address
	node   *memNode
	closed atomic.Bool
}

var _ Endpoint = (*memEndpoint)(nil)

// Addr implements Endpoint.
func (e *memEndpoint) Addr() Address { return e.addr }

// Call implements Endpoint. The request and the response each count as one
// message on both parties' counters.
func (e *memEndpoint) Call(to Address, msg any) (any, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	dst := e.net.lookup(to)
	if dst == nil || !dst.online.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	// Request message.
	e.node.sent.Add(1)
	dst.recv.Add(1)
	resp, err := dst.handler(e.addr, msg)
	// Response message.
	dst.sent.Add(1)
	e.node.recv.Add(1)
	if err != nil {
		return nil, WrapRemote(err)
	}
	return resp, nil
}

// Close implements Endpoint.
func (e *memEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.net.mu.Lock()
	delete(e.net.nodes, e.addr)
	e.net.mu.Unlock()
	return nil
}
