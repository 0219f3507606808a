// Package indirect implements an i3-style anonymous indirection layer
// (paper Section 5.2, third approach). Owner-anonymous coins embed a
// *handle* instead of an owner identity; the owner registers a trigger on
// the handle at an indirection server, and anyone can send protocol
// messages "to the handle" without learning who serves them. With our
// request/response bus the server simply forwards the inner request to the
// registered target and relays the response back.
//
// Handles are public keys: registering (or moving) a trigger requires a
// signature by the handle's private key, so only the owner can hijack its
// own handle. Multiple servers shard handles by hash, like i3's
// Chord-based trigger placement.
package indirect

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"whopay/internal/bus"
	"whopay/internal/sig"
)

// Errors returned by servers and clients.
var (
	// ErrNoTrigger is returned when forwarding to an unregistered handle.
	ErrNoTrigger = errors.New("indirect: no trigger registered for handle")
	// ErrBadAuth is returned when a trigger registration has a bad
	// signature.
	ErrBadAuth = errors.New("indirect: invalid trigger authorization")
	// ErrNoServers is returned by a client with an empty server list.
	ErrNoServers = errors.New("indirect: no servers")
)

// triggerMessage is the canonical byte string signed to (re)register a
// trigger. The version counter prevents replaying an old registration to
// re-point a moved trigger.
func triggerMessage(handle []byte, target bus.Address, version uint64) []byte {
	out := make([]byte, 0, 40+len(handle)+len(target))
	out = append(out, "whopay/indirect/trigger/1"...)
	out = binary.AppendUvarint(out, uint64(len(handle)))
	out = append(out, handle...)
	out = binary.AppendUvarint(out, uint64(len(target)))
	out = append(out, target...)
	out = binary.BigEndian.AppendUint64(out, version)
	return out
}

// Wire messages, exported for their wire codecs (wire.go).
type (
	// RegisterMsg installs (or moves) the trigger for Handle.
	RegisterMsg struct {
		Handle  []byte
		Target  bus.Address
		Version uint64
		Sig     []byte
	}
	// ForwardMsg relays Inner to the trigger target of Handle.
	ForwardMsg struct {
		Handle []byte
		Inner  any
	}
	// Ack is an empty success response.
	Ack struct{}
)

type trigger struct {
	target  bus.Address
	version uint64
}

// Server is one indirection server.
type Server struct {
	addr   bus.Address
	ep     bus.Endpoint
	scheme sig.Scheme

	mu       sync.Mutex
	triggers map[string]trigger
}

// NewServer starts an indirection server at addr on net, verifying trigger
// registrations with scheme.
func NewServer(net bus.Network, addr bus.Address, scheme sig.Scheme) (*Server, error) {
	s := &Server{addr: addr, scheme: scheme, triggers: make(map[string]trigger)}
	ep, err := net.Listen(addr, s.handle)
	if err != nil {
		return nil, fmt.Errorf("indirect: starting server %s: %w", addr, err)
	}
	s.ep = ep
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() bus.Address { return s.addr }

// Close shuts the server down.
func (s *Server) Close() error { return s.ep.Close() }

func (s *Server) handle(from bus.Address, msg any) (any, error) {
	switch m := msg.(type) {
	case RegisterMsg:
		// Only the holder of the handle's private key may install or
		// move its trigger.
		if err := s.scheme.Verify(m.Handle, triggerMessage(m.Handle, m.Target, m.Version), m.Sig); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadAuth, err)
		}
		s.mu.Lock()
		cur, exists := s.triggers[string(m.Handle)]
		if exists && m.Version <= cur.version {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: registration version %d not newer than %d", ErrBadAuth, m.Version, cur.version)
		}
		s.triggers[string(m.Handle)] = trigger{target: m.Target, version: m.Version}
		s.mu.Unlock()
		return Ack{}, nil
	case ForwardMsg:
		s.mu.Lock()
		tr, ok := s.triggers[string(m.Handle)]
		s.mu.Unlock()
		if !ok {
			return nil, ErrNoTrigger
		}
		// Relay: the sender never learns tr.target; the target sees
		// the server as the caller.
		return s.ep.Call(tr.target, m.Inner)
	default:
		return nil, fmt.Errorf("indirect: unknown message %T", msg)
	}
}

// Client addresses handles across a sharded server set.
type Client struct {
	ep      bus.Endpoint
	servers []bus.Address
}

// NewClient returns a client that reaches handles through servers.
func NewClient(ep bus.Endpoint, servers []bus.Address) (*Client, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	return &Client{ep: ep, servers: append([]bus.Address(nil), servers...)}, nil
}

// serverFor shards handles over servers by hash.
func (c *Client) serverFor(handle []byte) bus.Address {
	h := sha256.Sum256(handle)
	return c.servers[int(binary.BigEndian.Uint32(h[:4]))%len(c.servers)]
}

// Register installs a trigger pointing handle at target. The handle key
// pair authorizes the registration; version must increase on moves.
func (c *Client) Register(suite sig.Suite, handleKeys sig.KeyPair, target bus.Address, version uint64) error {
	sigBytes, err := suite.Sign(handleKeys.Private, triggerMessage(handleKeys.Public, target, version))
	if err != nil {
		return fmt.Errorf("indirect: signing registration: %w", err)
	}
	_, err = c.ep.Call(c.serverFor(handleKeys.Public), RegisterMsg{
		Handle:  handleKeys.Public,
		Target:  target,
		Version: version,
		Sig:     sigBytes,
	})
	return err
}

// Send relays inner to whatever target is registered for handle and
// returns the target's response.
func (c *Client) Send(handle []byte, inner any) (any, error) {
	return c.ep.Call(c.serverFor(handle), ForwardMsg{Handle: handle, Inner: inner})
}
