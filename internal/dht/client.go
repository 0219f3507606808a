package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
)

// Mode names the client's routing. OneHop is the only routing: the client
// holds the static membership and contacts a key's replica set directly,
// as Hoepman's spender contacts the clerk set.
type Mode int

// OneHop routes directly to the responsible nodes from the client's
// membership snapshot (Dynamo-style; the paper's DHT is a managed, trusted
// infrastructure with a known membership).
const OneHop Mode = 0

// Client reads and writes the DHT through an existing bus endpoint (the
// entity's own endpoint, so DHT traffic is attributed to the entity).
type Client struct {
	ep     bus.Endpoint
	caller bus.Caller // ep, or a RetryCaller around it (WithRetry)
	ring   []nodeRef

	// Replication (DESIGN.md §14): the normalized quorums and the
	// hot-coin lease cache.
	rep      replica.Config
	leases   *replica.LeaseCache
	repaired atomic.Uint64 // stale replicas back-filled by read-repair
}

// NewClient builds a client over the given node membership at the default
// quorums (see WithReplication). Node IDs are derived from addresses, so no
// network round-trip is needed. The routing is always OneHop.
func NewClient(ep bus.Endpoint, nodes []bus.Address, _ Mode) (*Client, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	ring := make([]nodeRef, 0, len(nodes))
	for _, addr := range nodes {
		ring = append(ring, nodeRef{id: keyForAddr(addr), addr: addr})
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].id.Less(ring[j].id) })
	c := &Client{ep: ep, caller: ep, ring: ring}
	return c.WithReplication(replica.Config{}), nil
}

// WithRetry wraps the client's per-node calls in the given retry policy
// (capped exponential backoff on transient transport failures; protocol
// rejections are never retried). Replica fallback still applies on top:
// retries are per node, fallback moves to the next one. Call before
// concurrent use; returns the client for chaining.
func (c *Client) WithRetry(policy bus.RetryPolicy) *Client {
	c.caller = bus.NewRetryCaller(c.ep, policy)
	return c
}

// primaryIndex returns the ring index of the node responsible for key; the
// replica chain follows it around the ring.
func (c *Client) primaryIndex(key Key) int {
	i := sort.Search(len(c.ring), func(i int) bool { return !c.ring[i].id.Less(key) })
	return i % len(c.ring)
}

// responsible returns the replica chain for key, primary first (tests).
func (c *Client) responsible(key Key) []nodeRef {
	i := c.primaryIndex(key)
	out := make([]nodeRef, 0, len(c.ring))
	for r := 0; r < len(c.ring); r++ {
		out = append(out, c.ring[(i+r)%len(c.ring)])
	}
	return out
}

// callWithFallback tries the responsible replica chain in order until one
// answers, tolerating individual node outages.
func (c *Client) callWithFallback(key Key, msg any) (any, error) {
	var lastErr error
	primary := c.primaryIndex(key)
	for r := 0; r < len(c.ring); r++ {
		resp, err := c.caller.Call(c.ring[(primary+r)%len(c.ring)].addr, msg)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var remote *bus.RemoteError
		if errors.As(err, &remote) {
			// The node answered and rejected us: an application
			// error (ACL, stale version) that fallback cannot fix.
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: all replicas failed: %v", ErrLookupFailed, lastErr)
}

// Put writes a signed record through the quorum path: the coordinator acks
// only after W replicas committed, and this client's lease cache adopts the
// written record.
func (c *Client) Put(rec Record) error {
	_, err := c.callWithFallback(rec.Key, QuorumPutMsg{Rec: rec})
	if err != nil {
		c.leases.Invalidate([32]byte(rec.Key))
		return err
	}
	c.leases.Put([32]byte(rec.Key), rec, rec.Version, 0)
	return nil
}

// Get reads the record at key: a quorum read — the replica set consulted
// in parallel, highest version wins, stale replicas back-filled
// asynchronously — fronted by the TTL lease cache that serves repeated
// reads of a hot binding locally.
func (c *Client) Get(key Key) (Record, bool, error) {
	if v, ok := c.leases.Get([32]byte(key)); ok {
		return v.(Record), true, nil
	}
	return c.quorumGet(key)
}

// Subscribe registers watcher for notifications on writes to key.
func (c *Client) Subscribe(key Key, watcher bus.Address) error {
	_, err := c.callWithFallback(key, SubMsg{Key: key, Watcher: watcher})
	return err
}

// Unsubscribe removes watcher's registration on key.
func (c *Client) Unsubscribe(key Key, watcher bus.Address) error {
	_, err := c.callWithFallback(key, SubMsg{Key: key, Watcher: watcher, Unsub: true})
	return err
}
