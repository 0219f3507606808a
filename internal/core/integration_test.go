package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"whopay/internal/groupsig"
	"whopay/internal/wal"
)

// TestAnonymousCoinLazySyncCycle drives an owner-anonymous coin through a
// full churn cycle: downtime ops while the hidden owner sleeps, trigger
// re-registration and lazy catch-up on rejoin, then owner-serviced
// transfers again — the most protocol-dense path in the system.
func TestAnonymousCoinLazySyncCycle(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, indirect: true, syncMode: SyncLazy})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	id, err := u.Purchase(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	// Direct (indirect-routed) transfer fails: the trigger target is
	// offline.
	if err := v.TransferTo(w.Addr(), id); err == nil {
		t.Fatal("transfer reached an offline hidden owner")
	}
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatalf("downtime transfer of anonymous coin: %v", err)
	}
	// Rejoin: triggers re-register, coins marked dirty.
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	if u.Ops().Get(OpSync) != 0 {
		t.Fatal("lazy peer synced proactively")
	}
	// The next transfer routes through the indirection layer to the
	// owner, which lazily catches up from the public binding list.
	if err := w.TransferTo(v.Addr(), id); err != nil {
		t.Fatalf("post-rejoin anonymous transfer: %v", err)
	}
	if u.Ops().Get(OpCheck) == 0 || u.Ops().Get(OpLazySync) == 0 {
		t.Fatalf("owner did not lazy-sync: %+v", u.Ops())
	}
	if err := v.Deposit(id, "v"); err != nil {
		t.Fatal(err)
	}
	if f.broker.Balance("v") != 1 {
		t.Fatal("deposit not credited")
	}
}

// TestSyncMultipleCoins: several coins of one owner get broker-era bindings
// during downtime; one sync reconciles all of them and clears broker state.
func TestSyncMultipleCoins(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, syncMode: SyncProactive})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	const n = 4
	ids := make([]interface{ String() string }, 0, n)
	for i := 0; i < n; i++ {
		id, err := u.Purchase(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.IssueTo(v.Addr(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	u.GoOffline()
	for _, raw := range v.HeldCoins() {
		if err := v.TransferViaBroker(w.Addr(), raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	if got := u.Ops().Get(OpSync); got != 1 {
		t.Fatalf("syncs = %d, want 1 (one per rejoin, covering all coins)", got)
	}
	// All owner bindings caught up; owner services the next hops.
	for _, raw := range w.HeldCoins() {
		if err := w.TransferTo(v.Addr(), raw); err != nil {
			t.Fatalf("post-sync transfer: %v", err)
		}
	}
	if got := u.Ops().Get(OpTransfer); got != n {
		t.Fatalf("owner transfers = %d, want %d", got, n)
	}
	// The broker dropped its downtime state after the sync: the next
	// downtime op uses flavor-one verification and still works.
	u.GoOffline()
	raw := v.HeldCoins()[0]
	if err := v.TransferViaBroker(w.Addr(), raw); err != nil {
		t.Fatalf("flavor-one downtime transfer after sync: %v", err)
	}
	_ = ids
}

// TestDisputeChainAcrossRenewalsAndBrokerOps: the audit-trail walk must
// verify chains that interleave owner transfers, renewals, and broker-era
// downtime operations.
func TestDisputeChainAcrossRenewalsAndBrokerOps(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true, syncMode: SyncProactive})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)

	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	vBinding, _ := v.HeldBinding(id)

	// Hop 1: owner transfer v→w; then w renews via owner; then owner
	// sleeps and w renews via broker; then downtime transfer w→v.
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Renew(id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	if viaBroker, err := w.Renew(id); err != nil || !viaBroker {
		t.Fatalf("broker renewal: %v (viaBroker=%v)", err, viaBroker)
	}
	if err := w.TransferViaBroker(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := u.GoOnline(); err != nil {
		t.Fatal(err)
	}
	final, _ := v.HeldBinding(id)

	// v's ORIGINAL binding vs the final one spans: owner transfer,
	// owner renewal, broker renewal, broker transfer. A (false) fraud
	// report must come back "legitimate" by walking all four eras.
	verdict := v.reportFraud(oc2pub(id), vBinding, final)
	if !strings.Contains(verdict, "legitimate") {
		t.Fatalf("verdict = %q, want legitimate (chain across 4 op kinds)", verdict)
	}
	if f.broker.Frozen("u") {
		t.Fatal("honest owner punished")
	}
}

// TestDisputeOwnerUnreachable: reports against sleeping owners stay pending
// rather than punishing in absentia.
func TestDisputeOwnerUnreachable(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	vb, _ := v.HeldBinding(id)
	if err := v.TransferTo(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	wb, _ := w.HeldBinding(id)
	u.GoOffline()
	verdict := v.reportFraud(oc2pub(id), vb, wb)
	if !strings.Contains(verdict, "pending") {
		t.Fatalf("verdict = %q, want pending while owner offline", verdict)
	}
	if f.broker.Frozen("u") {
		t.Fatal("owner punished in absentia")
	}
	cases := f.broker.FraudCases()
	if len(cases) != 1 || cases[0].Kind != "owner-unreachable" {
		t.Fatalf("cases = %+v", cases)
	}
}

// TestBrokerEvidenceOpensAnonymousDowntimePayer: fairness through the
// broker path — the judge opens the group signature on a captured downtime
// transfer request.
func TestBrokerEvidenceOpensAnonymousDowntimePayer(t *testing.T) {
	snoop := newSnoopNetwork()
	f := newFixtureOnNetwork(t, snoop)
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	<-snoop.mu
	var captured *TransferRequest
	for i := range snoop.seen {
		if snoop.seen[i].to != "broker" {
			continue
		}
		if tr, ok := snoop.seen[i].payload.(TransferRequest); ok {
			captured = &tr
		}
	}
	snoop.mu <- struct{}{}
	if captured == nil {
		t.Fatal("no downtime TransferRequest captured")
	}
	// The broker saw no identity; the judge recovers it.
	identity, err := f.judge.Open(captured.Body.Message(), captured.GroupSig)
	if err != nil {
		t.Fatal(err)
	}
	if identity != "v" {
		t.Fatalf("opened %q, want v", identity)
	}
}

// TestManyPeersRoundRobin stress-drives one coin around a ring of peers
// under real crypto, validating long binding chains (seq growth, audit
// logs, DHT version growth).
func TestManyPeersRoundRobin(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	owner := f.addPeer("owner", nil)
	const n = 6
	ring := make([]*Peer, n)
	for i := range ring {
		ring[i] = f.addPeer(fmt.Sprintf("r%d", i), nil)
	}
	id, err := owner.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.IssueTo(ring[0].Addr(), id); err != nil {
		t.Fatal(err)
	}
	const laps = 3
	for hop := 0; hop < laps*n; hop++ {
		from := ring[hop%n]
		to := ring[(hop+1)%n]
		if err := from.TransferTo(to.Addr(), id); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
	}
	if got := owner.Ops().Get(OpTransfer); got != laps*n {
		t.Fatalf("owner transfers = %d, want %d", got, laps*n)
	}
	holder := ring[0]
	b, _ := holder.HeldBinding(id)
	if b == nil {
		t.Fatal("ring lost the coin")
	}
	if err := holder.Deposit(id, "ring"); err != nil {
		t.Fatal(err)
	}
	if f.broker.Balance("ring") != 1 {
		t.Fatal("final deposit")
	}
}

// TestAuditLogCapEviction: capped audit logs keep only the most recent
// proofs; disputes older than the cap cannot be answered (the documented
// trade-off the simulator accepts). Evictions are journaled: a restarted
// owner recovers exactly the live trail.
func TestAuditLogCapEviction(t *testing.T) {
	f := newFixture(t, fixtureOpts{detection: true})
	ownerCfg := f.peerConfig("owner", nil)
	ownerCfg.AuditLogCap = 2
	ownerCfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways}
	owner := f.addPeerWith(ownerCfg)
	a := f.addPeer("a", nil)
	b := f.addPeer("b", nil)
	id, err := owner.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.IssueTo(a.Addr(), id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		from, to := a, b
		if i%2 == 1 {
			from, to = b, a
		}
		if err := from.TransferTo(to.Addr(), id); err != nil {
			t.Fatal(err)
		}
	}
	trailSeqs := func(p *Peer) []uint64 {
		oc, _ := p.owned.Get(id)
		oc.mu.Lock()
		defer oc.mu.Unlock()
		var seqs []uint64
		for seq := range oc.log {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		return seqs
	}
	live := trailSeqs(owner)
	if len(live) != 2 {
		t.Fatalf("audit log length = %d, want cap 2", len(live))
	}
	owner = f.restartPeer(owner, ownerCfg)
	if got := trailSeqs(owner); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered audit trail seqs %v, live trail %v", got, live)
	}
}

// TestShopGroupSignatureFairness: even shop-issued coins stay fair — a
// transfer of a shop coin is openable by the judge.
func TestShopGroupSignatureFairness(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	shop := NewShop(f.addPeer("shop", nil), 1)
	alice := f.addPeer("alice", nil)
	bob := f.addPeer("bob", nil)
	if _, err := shop.Vend(alice.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	id := alice.HeldCoins()[0]
	// Build the transfer request by hand to capture its group sig.
	resp, err := alice.ep.Call(bob.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := resp.(OfferResponse)
	hc, _ := alice.held.Get(id)
	req, err := alice.buildTransfer(hc, bob.Addr(), offer)
	if err != nil {
		t.Fatal(err)
	}
	var gs groupsig.Signature = req.GroupSig
	identity, err := f.judge.Open(req.Body.Message(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if identity != "alice" {
		t.Fatalf("opened %q", identity)
	}
}
