package dht

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
	"whopay/internal/store"
)

// Node-side replication (DESIGN.md §14): quorum writes, version digests for
// quorum reads, and the background anti-entropy sweep that converges
// replicas missed during downtime.

// ErrQuorumFailed is returned when a quorum write (or read) cannot gather
// the configured number of replica acknowledgements.
var ErrQuorumFailed = errors.New("dht: quorum not reached")

func init() {
	// The code crosses tcpbus so errors.Is keeps working remotely, and so
	// the load harness can whitelist quorum failures during a node kill.
	bus.RegisterErrorCode("dht.quorum_failed", ErrQuorumFailed)
}

// Replication wire messages (tags 48–57, see wire.go).
type (
	// QuorumPutMsg writes a record through the quorum path: the receiving
	// node coordinates, fanning the record to the replica set and acking
	// only after W replicas (itself included) committed.
	QuorumPutMsg struct{ Rec Record }
	// QuorumAck answers a committed QuorumPutMsg.
	QuorumAck struct {
		Committed uint32 // replicas that acknowledged the write
		Required  uint32 // the configured write quorum W
	}
	// DigestMsg asks a replica for its version digest of one key — the
	// light half of a quorum read.
	DigestMsg struct{ Key Key }
	// DigestResp answers DigestMsg.
	DigestResp struct {
		Found   bool
		Version uint64
	}
	// SweepMsg opens an anti-entropy round: the sender's digest over the
	// key range the two nodes share. A matching digest ends the round in
	// this one message pair.
	SweepMsg struct {
		From  bus.Address
		Sum   [32]byte
		Count uint64
	}
	// SweepResp answers SweepMsg.
	SweepResp struct{ Match bool }
	// SweepKeysMsg is the reconciliation half of a mismatched sweep: the
	// sender's per-key versions and watcher sets for the shared range.
	SweepKeysMsg struct {
		From bus.Address
		Recs []KeyVer
		Subs []SubState
	}
	// SweepKeysResp answers SweepKeysMsg: full records the sender is
	// missing or behind on, keys the responder wants pushed, and the
	// responder's watcher sets (both sides merge to the union).
	SweepKeysResp struct {
		Newer []Record
		Want  []Key
		Subs  []SubState
	}
	// LeaseGetMsg reads a record with a lease grant attached — the full
	// half of a quorum read, and what feeds the client's lease cache.
	LeaseGetMsg struct{ Key Key }
	// LeaseResp answers LeaseGetMsg. GrantMs is how long the node lets
	// the reader serve this record locally (0: no lease).
	LeaseResp struct {
		Rec     Record
		Found   bool
		GrantMs uint32
	}
)

// KeyVer is one key's version — the unit of the sweep reconciliation.
type KeyVer struct {
	Key     Key
	Version uint64
}

// SubState is one key's watcher set, sorted.
type SubState struct {
	Key      Key
	Watchers []bus.Address
}

// handleQuorumPut coordinates a quorum write. The local accept runs first —
// a rejection (ACL, bad signature, stale version) fails the write before
// any replica sees it — then the record fans to the rest of the replica set
// concurrently and the write acks only with W commits in hand.
func (n *Node) handleQuorumPut(m QuorumPutMsg) (any, error) {
	accepted, rec, err := n.acceptRecord(m.Rec)
	if err != nil {
		return nil, err
	}
	acks := 0
	var others []bus.Address
	for _, r := range n.replicaSet(rec.Key) {
		if r.addr == n.addr {
			acks++ // the coordinator's own commit
		} else {
			others = append(others, r.addr)
		}
	}
	acks += n.fanOut(others, PutMsg{Rec: rec})
	if acks < n.rep.W {
		n.quorumFails.Add(1)
		return nil, fmt.Errorf("%w: %d of %d replicas committed (need %d)",
			ErrQuorumFailed, acks, n.rep.N, n.rep.W)
	}
	n.quorumWrites.Add(1)
	if accepted {
		n.notifyWatchers(rec)
	}
	return QuorumAck{Committed: uint32(acks), Required: uint32(n.rep.W)}, nil
}

// otherReplicas lists the replica set for key minus this node.
func (n *Node) otherReplicas(key Key) []bus.Address {
	set := n.replicaSet(key)
	out := make([]bus.Address, 0, len(set))
	for _, r := range set {
		if r.addr != n.addr {
			out = append(out, r.addr)
		}
	}
	return out
}

// --- Anti-entropy sweep ---------------------------------------------------

// startSweeper launches the background anti-entropy loop. No-op unless the
// sweep interval is positive.
func (n *Node) startSweeper() {
	if n.rep.SweepInterval <= 0 {
		return
	}
	n.stopSweep = make(chan struct{})
	n.sweepWG.Add(1)
	go func() {
		defer n.sweepWG.Done()
		t := time.NewTicker(n.rep.SweepInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stopSweep:
				return
			case <-t.C:
				n.SweepOnce()
			}
		}
	}()
}

// stopSweeper stops the background loop and waits it out.
func (n *Node) stopSweeper() {
	if n.stopSweep != nil {
		close(n.stopSweep)
		n.sweepWG.Wait()
		n.stopSweep = nil
	}
}

// SweepOnce runs one full anti-entropy round against every successor-list
// neighbor this node shares key ranges with, and returns how many divergent
// entries (records repaired, pushed, or unreachable neighbors) it found —
// the repair backlog. Exported so tests and convergence waits can sweep
// deterministically.
func (n *Node) SweepOnce() int {
	div := 0
	for _, nb := range n.sweepNeighbors() {
		div += n.sweepNeighbor(nb)
	}
	n.sweepRounds.Add(1)
	prev := n.repairBacklog.Swap(int64(div))
	if div > 0 && int64(div) >= prev {
		n.backlogGrowth.Add(1)
	} else {
		n.backlogGrowth.Store(0)
	}
	return div
}

// sweepNeighbors lists the N-1 distinct ring successors — the nodes this
// one shares replica ranges with. Predecessors run their own sweeps, so
// pairwise coverage is complete when every node sweeps.
func (n *Node) sweepNeighbors() []nodeRef {
	if len(n.ring) < 2 {
		return nil
	}
	self := 0
	for i, r := range n.ring {
		if r.addr == n.addr {
			self = i
			break
		}
	}
	var out []nodeRef
	for s := 1; s < n.rep.N && len(out) < len(n.ring)-1; s++ {
		nb := n.ring[(self+s)%len(n.ring)]
		if nb.addr != n.addr {
			out = append(out, nb)
		}
	}
	return out
}

// sweepNeighbor reconciles one neighbor: digest first (one message pair
// when converged), full key-version exchange plus targeted record transfer
// only on mismatch. An unreachable neighbor counts as one backlog entry —
// state we know we cannot verify.
func (n *Node) sweepNeighbor(nb nodeRef) int {
	recs, subs := n.sharedState(nb.addr)
	sum, cnt := digestOf(recs, subs)
	resp, err := n.ep.Call(nb.addr, SweepMsg{From: n.addr, Sum: sum, Count: cnt})
	if err != nil {
		return 1
	}
	if sr, ok := resp.(SweepResp); ok && sr.Match {
		return 0
	}
	resp, err = n.ep.Call(nb.addr, SweepKeysMsg{From: n.addr, Recs: recs, Subs: subs})
	if err != nil {
		return 1
	}
	kr, ok := resp.(SweepKeysResp)
	if !ok {
		return 1
	}
	div := 0
	for _, rec := range kr.Newer {
		// Full validation applies — a neighbor cannot inject what a
		// client could not write.
		if accepted, stamped, err := n.acceptRecord(rec); err == nil && accepted {
			n.sweepRepairs.Add(1)
			n.notifyWatchers(stamped)
			div++
		}
	}
	for _, key := range kr.Want {
		if rec, ok := n.store.Get(key); ok {
			if _, err := n.ep.Call(nb.addr, PutMsg{Rec: rec}); err == nil {
				n.sweepRepairs.Add(1)
			}
			div++
		}
	}
	n.mergeSubs(kr.Subs)
	return div
}

// handleSweep answers a digest probe with our own digest of the range we
// share with the sender.
func (n *Node) handleSweep(m SweepMsg) (any, error) {
	recs, subs := n.sharedState(m.From)
	sum, cnt := digestOf(recs, subs)
	return SweepResp{Match: sum == m.Sum && cnt == m.Count}, nil
}

// handleSweepKeys reconciles the sender's shared-range state against ours.
func (n *Node) handleSweepKeys(m SweepKeysMsg) (any, error) {
	recs, subs := n.sharedState(m.From)
	local := make(map[Key]uint64, len(recs))
	for _, kv := range recs {
		local[kv.Key] = kv.Version
	}
	var resp SweepKeysResp
	seen := make(map[Key]bool, len(m.Recs))
	for _, kv := range m.Recs {
		seen[kv.Key] = true
		lv, ok := local[kv.Key]
		switch {
		case !ok || lv < kv.Version:
			resp.Want = append(resp.Want, kv.Key)
		case lv > kv.Version:
			if rec, ok := n.store.Get(kv.Key); ok {
				resp.Newer = append(resp.Newer, rec)
			}
		}
	}
	for _, kv := range recs {
		if !seen[kv.Key] {
			if rec, ok := n.store.Get(kv.Key); ok {
				resp.Newer = append(resp.Newer, rec)
			}
		}
	}
	// Watcher sets merge to the union on both sides: we fold the sender's
	// in, the sender folds our pre-merge view from the response.
	resp.Subs = subs
	n.mergeSubs(m.Subs)
	return resp, nil
}

// sharedState snapshots the records and watcher sets in the key range this
// node shares with other, sorted for canonical digesting.
func (n *Node) sharedState(other bus.Address) ([]KeyVer, []SubState) {
	var recs []KeyVer
	n.store.Range(func(k Key, r Record) bool {
		if n.sharesKey(k, other) {
			recs = append(recs, KeyVer{Key: k, Version: r.Version})
		}
		return true
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key.Less(recs[j].Key) })
	var subs []SubState
	for _, k := range n.subs.Keys() {
		if !n.sharesKey(k, other) {
			continue
		}
		var ws []bus.Address
		n.subs.View(k, func(set map[bus.Address]bool, _ bool) {
			for w := range set {
				ws = append(ws, w)
			}
		})
		if len(ws) == 0 {
			continue
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		subs = append(subs, SubState{Key: k, Watchers: ws})
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].Key.Less(subs[j].Key) })
	return recs, subs
}

// sharesKey reports whether key's replica set contains both this node and
// other.
func (n *Node) sharesKey(key Key, other bus.Address) bool {
	self, oth := false, false
	for _, r := range n.replicaSet(key) {
		if r.addr == n.addr {
			self = true
		}
		if r.addr == other {
			oth = true
		}
	}
	return self && oth
}

// digestOf folds sorted shared state into one canonical digest.
func digestOf(recs []KeyVer, subs []SubState) ([32]byte, uint64) {
	d := replica.NewDigest()
	for _, kv := range recs {
		d.Record(kv.Key[:], kv.Version)
	}
	for _, s := range subs {
		ws := make([]string, len(s.Watchers))
		for i, w := range s.Watchers {
			ws[i] = string(w)
		}
		d.Subs(s.Key[:], ws)
	}
	return d.Sum()
}

// mergeSubs folds foreign watcher sets into ours (union). Spurious watchers
// are harmless — a notify for a coin the watcher no longer holds is ignored
// — while a lost watcher means missed double-spend alarms, so the merge
// only ever adds.
func (n *Node) mergeSubs(states []SubState) {
	for _, st := range states {
		if len(st.Watchers) == 0 {
			continue
		}
		n.subs.Compute(st.Key, func(ws map[bus.Address]bool, exists bool) (map[bus.Address]bool, store.Op) {
			changed := false
			if ws == nil {
				ws = make(map[bus.Address]bool, len(st.Watchers))
			}
			for _, w := range st.Watchers {
				if !ws[w] {
					ws[w] = true
					changed = true
				}
			}
			if !changed {
				return ws, store.OpKeep
			}
			n.journalSubsLocked(st.Key, ws)
			return ws, store.OpSet
		})
	}
}

// replicationHealth is the /healthz check for the repair backlog: a node
// whose backlog has grown for three consecutive sweeps is flagged.
func (n *Node) replicationHealth() (string, error) {
	if g := n.backlogGrowth.Load(); g >= 3 {
		return "", fmt.Errorf("repair backlog growing for %d sweeps (backlog %d)", g, n.repairBacklog.Load())
	}
	return fmt.Sprintf("backlog %d after %d sweeps, %d entries repaired",
		n.repairBacklog.Load(), n.sweepRounds.Load(), n.sweepRepairs.Load()), nil
}
