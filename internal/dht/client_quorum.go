package dht

import (
	"fmt"
	"sync"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
)

// Client-side quorum reads and the hot-coin lease cache (DESIGN.md §14).

// WithReplication replaces the client's quorums and lease cache (NewClient
// installs the defaults). The config is normalized against the known
// membership, so W+R > N holds even if the caller hand-tuned the numbers.
// Call before concurrent use; returns the client for chaining.
func (c *Client) WithReplication(cfg replica.Config) *Client {
	c.rep = cfg.WithDefaults(len(c.ring))
	c.leases = replica.NewLeaseCache(c.rep.LeaseTTL, replica.DefaultLeaseCap)
	return c
}

// probe is one replica's answer during a quorum read.
type probe struct {
	addr    bus.Address
	found   bool
	version uint64
	rec     *Record // non-nil when the probe carried the full record
	grantMs uint32
	err     error
}

// quorumGet probes all N replicas of key in parallel and waits for every
// answer: the first replica is asked for the full record (with a lease
// grant), the rest for version digests. The highest version wins; replicas
// that answered stale or empty are back-filled asynchronously with the
// winner (read-repair). Fails with ErrQuorumFailed when fewer than R
// replicas answer.
func (c *Client) quorumGet(key Key) (Record, bool, error) {
	members := c.responsible(key)
	if len(members) > c.rep.N {
		members = members[:c.rep.N]
	}
	probes := make([]probe, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, addr bus.Address) {
			defer wg.Done()
			probes[i] = c.probeReplica(addr, key, i == 0)
		}(i, m.addr)
	}
	wg.Wait()

	answered := 0
	for _, p := range probes {
		if p.err == nil {
			answered++
		}
	}
	if answered < c.rep.R {
		return Record{}, false, fmt.Errorf("%w: %d of %d replicas answered (need %d)",
			ErrQuorumFailed, answered, len(members), c.rep.R)
	}

	// Winner: the highest version among answers. Epochs are node-local
	// restart metadata and never compared across nodes.
	winner := -1
	for i, p := range probes {
		if p.err != nil || !p.found {
			continue
		}
		if winner < 0 || p.version > probes[winner].version {
			winner = i
		}
	}
	if winner < 0 {
		return Record{}, false, nil // quorum of confirmed not-founds
	}
	win := probes[winner]
	if win.rec == nil {
		// The winning version came from a digest: fetch the record.
		full := c.probeReplica(win.addr, key, true)
		if full.err != nil || !full.found {
			return Record{}, false, fmt.Errorf("%w: winning replica %s lost mid-read",
				ErrQuorumFailed, win.addr)
		}
		win = full
	}
	rec := *win.rec
	c.repairStale(key, rec, probes)
	if win.grantMs > 0 { // 0: the node granted no lease
		c.leases.Put([32]byte(key), rec, rec.Version, time.Duration(win.grantMs)*time.Millisecond)
	}
	return rec, true, nil
}

// probeReplica asks one replica about key: the full record (lease read)
// or just its version digest.
func (c *Client) probeReplica(addr bus.Address, key Key, full bool) probe {
	p := probe{addr: addr}
	if full {
		resp, err := c.caller.Call(addr, LeaseGetMsg{Key: key})
		if err != nil {
			p.err = err
			return p
		}
		lr, ok := resp.(LeaseResp)
		if !ok {
			p.err = fmt.Errorf("dht: unexpected response %T", resp)
			return p
		}
		if lr.Found {
			rec := lr.Rec
			p.found, p.version, p.rec = true, rec.Version, &rec
		}
		p.grantMs = lr.GrantMs
		return p
	}
	resp, err := c.caller.Call(addr, DigestMsg{Key: key})
	if err != nil {
		p.err = err
		return p
	}
	dr, ok := resp.(DigestResp)
	if !ok {
		p.err = fmt.Errorf("dht: unexpected response %T", resp)
		return p
	}
	p.found, p.version = dr.Found, dr.Version
	return p
}

// repairStale back-fills replicas that answered behind the winner,
// asynchronously — the read already has its answer; repair is about the
// next one. The record is self-certifying (signed), so the replica applies
// the same ACL and version checks as any write.
func (c *Client) repairStale(key Key, winner Record, probes []probe) {
	for _, p := range probes {
		if p.err != nil || (p.found && p.version >= winner.Version) {
			continue
		}
		addr := p.addr
		c.repaired.Add(1)
		go func() {
			_, _ = c.caller.Call(addr, PutMsg{Rec: winner})
		}()
	}
}

// ObserveNotify feeds a watch notification into the lease cache: the
// freshest possible view of the binding, delivered by the node itself, so
// the cache entry is refreshed (or created) rather than waiting out its
// TTL with stale data.
func (c *Client) ObserveNotify(rec Record) {
	c.leases.Put([32]byte(rec.Key), rec, rec.Version, 0)
}

// InvalidateLease drops key's cached record (e.g. after a failed write
// left its state uncertain).
func (c *Client) InvalidateLease(key Key) {
	c.leases.Invalidate([32]byte(key))
}

// LeaseStats reports the lease cache's cumulative hits and misses, the
// number of backwards-in-time records it refused (stale quorum reads
// observed — must stay zero while a read quorum survives), and the stale
// replicas read-repair back-filled.
func (c *Client) LeaseStats() (hits, misses, stale, repaired uint64) {
	hits, misses, stale = c.leases.Stats()
	return hits, misses, stale, c.repaired.Load()
}
