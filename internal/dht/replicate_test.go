package dht

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// replicatedFixture builds a quorum-replicated cluster. Sweeping is manual
// (SweepDisabled) unless sweepEvery is positive, so tests converge
// deterministically via SweepAll. persist makes nodes journal so Kill can
// be followed by Restart.
func replicatedFixture(t testing.TB, nodes int, cfg replica.Config, persist bool, sweepEvery time.Duration) (*fixture, *Client) {
	t.Helper()
	net := bus.NewMemory()
	scheme := sig.NewNull(400)
	suite := sig.Suite{Scheme: scheme}
	broker, err := suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if sweepEvery <= 0 {
		sweepEvery = replica.SweepDisabled
	}
	cfg.SweepInterval = sweepEvery
	ccfg := ClusterConfig{
		Network:     net,
		Scheme:      scheme,
		Nodes:       nodes,
		Trusted:     []sig.PublicKey{broker.Public},
		Replication: &cfg,
	}
	if persist {
		ccfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways}
	}
	cluster, err := NewClusterWithConfig(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ep, err := net.Listen("client", func(bus.Address, any) (any, error) { return Ack{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ep, cluster.Addrs(), OneHop)
	if err != nil {
		t.Fatal(err)
	}
	client.WithReplication(cfg)
	return &fixture{net: net, cluster: cluster, suite: suite, broker: broker}, client
}

// nodeFor maps a ring address back to the cluster node serving it.
func (f *fixture) nodeFor(t testing.TB, addr bus.Address) (*Node, int) {
	t.Helper()
	for i, n := range f.cluster.nodes {
		if n.addr == addr {
			return n, i
		}
	}
	t.Fatalf("no node at %s", addr)
	return nil, 0
}

func TestQuorumPutGetRoundTrip(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	kp, rec := f.ownedRecord(t, 1, "binding-v1")
	if err := c.Put(rec); err != nil {
		t.Fatalf("quorum put: %v", err)
	}
	got, found, err := c.Get(rec.Key)
	if err != nil || !found {
		t.Fatalf("get = %v, %v", found, err)
	}
	if got.Version != 1 || string(got.Value) != "binding-v1" {
		t.Fatalf("got %d %q", got.Version, got.Value)
	}
	// The coordinator fans synchronously: every replica has the record
	// before the ack, so the cluster is converged immediately.
	if d := f.cluster.Divergence(); d != 0 {
		t.Fatalf("divergence after quorum put = %d", d)
	}
	_ = kp
}

func TestQuorumPutSurvivesOneNodeDown(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	if err := f.cluster.Kill(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_, rec := f.ownedRecord(t, 1, fmt.Sprintf("v-%d", i))
		if err := c.Put(rec); err != nil {
			t.Fatalf("put %d with one node down: %v", i, err)
		}
		c.InvalidateLease(rec.Key) // force the read back to the quorum path
		got, found, err := c.Get(rec.Key)
		if err != nil || !found || got.Version != 1 {
			t.Fatalf("get %d = %v %v %v", i, got.Version, found, err)
		}
	}
}

func TestQuorumPutFailsBelowW(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	_ = f.cluster.Kill(0)
	_ = f.cluster.Kill(1)
	_, rec := f.ownedRecord(t, 1, "doomed")
	err := c.Put(rec)
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("put with 2 of 3 nodes down: %v, want ErrQuorumFailed", err)
	}
	// The read quorum is gone too.
	_, _, err = c.quorumGet(rec.Key)
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("quorum read with 2 of 3 nodes down: %v, want ErrQuorumFailed", err)
	}
}

// TestQuorumReadRepairBackfills writes a newer version to only a write
// quorum of replicas, reads, and expects the read to both return the newest
// version and asynchronously back-fill the replica that missed it.
func TestQuorumReadRepairBackfills(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 3}, false, 0)
	kp, rec1 := f.ownedRecord(t, 1, "v1")
	if err := c.Put(rec1); err != nil {
		t.Fatal(err)
	}
	rec2, err := SignRecord(f.suite, kp, rec1.Key, 2, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a write that reached only members 1 and 2 (a W quorum that
	// excluded the primary).
	members := c.responsible(rec1.Key)[:3]
	for _, m := range members[1:] {
		if _, err := c.caller.Call(m.addr, PutMsg{Rec: rec2}); err != nil {
			t.Fatal(err)
		}
	}
	stale, _ := f.nodeFor(t, members[0].addr)

	got, found, err := c.quorumGet(rec1.Key)
	if err != nil || !found {
		t.Fatalf("quorum get = %v, %v", found, err)
	}
	if got.Version != 2 {
		t.Fatalf("quorum read returned version %d, want 2 (stale quorum read)", got.Version)
	}
	// Read-repair is asynchronous; poll for the back-fill.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r, ok := stale.store.Get(rec1.Key); ok && r.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale replica never repaired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, _, repaired := c.LeaseStats(); repaired == 0 {
		t.Fatal("read-repair not counted")
	}
}

func TestLeaseCacheServesRepeatedReads(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2, LeaseTTL: time.Second}, false, 0)
	_, rec := f.ownedRecord(t, 1, "hot")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, found, err := c.Get(rec.Key); err != nil || !found {
			t.Fatalf("get %d = %v, %v", i, found, err)
		}
	}
	hits, _, stale, _ := c.LeaseStats()
	if hits < 10 {
		t.Fatalf("lease hits = %d, want ≥ 10 (writer's own put seeds the cache)", hits)
	}
	if stale != 0 {
		t.Fatalf("stale reads = %d, want 0", stale)
	}
}

// TestSubReplicationSurvivesPrimaryFailover is the regression for the
// subscription-loss-on-failover gap: a watcher registered at the primary
// must still be notified when the primary is down and a surviving replica
// coordinates the next write.
func TestSubReplicationSurvivesPrimaryFailover(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	kp, rec := f.ownedRecord(t, 1, "watched")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []uint64
	_, err := f.net.Listen("watcher", func(_ bus.Address, msg any) (any, error) {
		if nt, ok := msg.(Notify); ok {
			mu.Lock()
			seen = append(seen, nt.Rec.Version)
			mu.Unlock()
		}
		return Ack{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(rec.Key, "watcher"); err != nil {
		t.Fatal(err)
	}

	// Kill the primary — the node the registration was sent to.
	primary := c.responsible(rec.Key)[0].addr
	_, idx := f.nodeFor(t, primary)
	if err := f.cluster.Kill(idx); err != nil {
		t.Fatal(err)
	}

	rec2, err := SignRecord(f.suite, kp, rec.Key, 2, []byte("rebound"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(rec2); err != nil {
		t.Fatalf("put after primary kill: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, v := range seen {
		if v == 2 {
			return
		}
	}
	t.Fatalf("watcher missed the post-failover write; saw versions %v", seen)
}

// TestAntiEntropyConvergesRestartedNode kills a replica, writes past it,
// restarts it from its journal, and expects one sweep round to close the
// gap — records and watcher registrations both.
func TestAntiEntropyConvergesRestartedNode(t *testing.T) {
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2}, true, 0)
	kp, rec := f.ownedRecord(t, 1, "v1")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	down, idx := f.nodeFor(t, c.responsible(rec.Key)[0].addr)
	if err := f.cluster.Kill(idx); err != nil {
		t.Fatal(err)
	}
	for v := uint64(2); v <= 4; v++ {
		r, err := SignRecord(f.suite, kp, rec.Key, v, []byte(fmt.Sprintf("v%d", v)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(r); err != nil {
			t.Fatalf("put v%d: %v", v, err)
		}
	}
	// A watcher registered while the primary is down lands on the
	// survivors only; the sweep must merge it into the restarted node.
	if _, err := f.net.Listen("late-watcher", func(bus.Address, any) (any, error) { return Ack{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(rec.Key, "late-watcher"); err != nil {
		t.Fatal(err)
	}

	if err := f.cluster.Restart(idx); err != nil {
		t.Fatal(err)
	}
	restarted := f.cluster.nodes[idx]
	if r, ok := restarted.store.Get(rec.Key); !ok || r.Version != 1 {
		t.Fatalf("restarted node recovered version %d, want its pre-crash 1", r.Version)
	}
	if !f.cluster.WaitConverged(5 * time.Second) {
		t.Fatalf("cluster did not converge; divergence = %d", f.cluster.Divergence())
	}
	if r, ok := restarted.store.Get(rec.Key); !ok || r.Version != 4 {
		t.Fatalf("restarted node at version %d after sweep, want 4", r.Version)
	}
	var hasWatcher bool
	restarted.subs.View(rec.Key, func(set map[bus.Address]bool, _ bool) {
		hasWatcher = set["late-watcher"]
	})
	if !hasWatcher {
		t.Fatal("sweep did not merge the watcher registered during downtime")
	}
	if down.sweepRepairs.Load()+restarted.sweepRepairs.Load() == 0 &&
		f.cluster.nodes[(idx+1)%3].sweepRepairs.Load() == 0 &&
		f.cluster.nodes[(idx+2)%3].sweepRepairs.Load() == 0 {
		t.Fatal("no sweep repair counted anywhere")
	}
	// A second sweep finds nothing: digests match in one message pair.
	if div := f.cluster.SweepAll(); div != 0 {
		t.Fatalf("second sweep still found %d divergent entries", div)
	}
}

// chaosSeedDHT mirrors the core chaos suite's seed discipline: fixed
// default seeds, overridable with WHOPAY_CHAOS_SEED for reproduction, and
// subtests fan out to seeds derived from the env seed and their name.
func chaosSeedDHT(t *testing.T, name string, def int64) int64 {
	if s := os.Getenv("WHOPAY_CHAOS_SEED"); s != "" {
		env, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad WHOPAY_CHAOS_SEED %q: %v", s, err)
		}
		if name == "env" {
			return env
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", env, name)
		return int64(h.Sum64())
	}
	return def
}

// TestChaosNodeKillQuorumConsistency is the dht-node-kill chaos property:
// writers storm the cluster while nodes are crash-stopped and recovered,
// and a quorum read must never return a version older than the last acked
// quorum write to the same key — the no-stale-read overlap guarantee the
// paper's real-time double-spend detection rests on.
func TestChaosNodeKillQuorumConsistency(t *testing.T) {
	for _, sub := range []struct {
		name string
		seed int64
	}{{"env", 0xD47}, {"alt", 0xC0117}} {
		t.Run(sub.name, func(t *testing.T) {
			runChaosNodeKill(t, chaosSeedDHT(t, sub.name, sub.seed))
		})
	}
}

func runChaosNodeKill(t *testing.T, seed int64) {
	const (
		writers  = 4
		versions = 40
		kills    = 4
	)
	f, c := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2, LeaseTTL: 5 * time.Millisecond}, true, 10*time.Millisecond)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("[chaos seed %d] "+format+
			" — reproduce with: WHOPAY_CHAOS_SEED=%d go test -run 'TestChaosNodeKillQuorumConsistency/env' ./internal/dht/",
			append(append([]any{seed}, args...), seed)...)
	}

	type slot struct {
		kp    sig.KeyPair
		key   Key
		acked uint64
	}
	slots := make([]*slot, writers)
	for i := range slots {
		kp, rec := f.ownedRecord(t, 0, "seed")
		slots[i] = &slot{kp: kp, key: rec.Key}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	writerFail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	stop := make(chan struct{})
	for wi, s := range slots {
		wg.Add(1)
		go func(wi int, s *slot) {
			defer wg.Done()
			for v := uint64(1); v <= versions; v++ {
				rec, err := SignRecord(f.suite, s.kp, s.key, v, []byte(fmt.Sprintf("w%d-v%d", wi, v)))
				if err != nil {
					writerFail("sign: %v", err)
					return
				}
				// Retry through kill windows; quorum failures and
				// transport errors are the storm's weather, not a bug.
				for attempt := 0; ; attempt++ {
					if err = c.Put(rec); err == nil {
						s.acked = v
						break
					}
					if attempt > 200 {
						writerFail("writer %d: version %d never committed: %v", wi, v, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				got, found, err := c.Get(s.key)
				if err != nil {
					continue // a read quorum may be out during a kill; the invariant is about answers
				}
				if !found {
					writerFail("writer %d: read after acked v%d found nothing", wi, v)
					return
				}
				if got.Version < s.acked {
					writerFail("STALE QUORUM READ: writer %d read v%d after acking v%d", wi, got.Version, s.acked)
					return
				}
			}
		}(wi, s)
	}

	// The killer: crash-stop one node at a time, let the storm run on the
	// surviving majority, recover, repeat.
	rng := rand.New(rand.NewSource(seed))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < kills; k++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := rng.Intn(3)
			if err := f.cluster.Kill(idx); err != nil {
				writerFail("kill %d: %v", idx, err)
				return
			}
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
			if err := f.cluster.Restart(idx); err != nil {
				writerFail("restart %d: %v", idx, err)
				return
			}
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	mu.Lock()
	for _, f := range failures {
		fail("%s", f)
	}
	mu.Unlock()
	if t.Failed() {
		return
	}

	if !f.cluster.WaitConverged(10 * time.Second) {
		fail("anti-entropy never reached digest parity; divergence = %d", f.cluster.Divergence())
	}
	for wi, s := range slots {
		c.InvalidateLease(s.key)
		got, found, err := c.Get(s.key)
		if err != nil || !found {
			fail("final read writer %d: %v, %v", wi, found, err)
			continue
		}
		if got.Version < s.acked {
			fail("final read writer %d: v%d < acked v%d", wi, got.Version, s.acked)
		}
	}
	if _, _, stale, _ := c.LeaseStats(); stale != 0 {
		fail("%d stale quorum reads observed by the lease watermark", stale)
	}
}

// TestSingleReplicaIsOneMessage pins the message accounting of a 1/1/1
// ring, the configuration the paper-figure simulator runs: a put is one
// QuorumPutMsg exchange with no replica fan-out, and a read — hit or miss —
// is one LeaseGetMsg exchange with no digest probes.
func TestSingleReplicaIsOneMessage(t *testing.T) {
	f, c := replicatedFixture(t, 8, replica.Config{N: 1, W: 1, R: 1, LeaseTTL: time.Nanosecond}, false, 0)
	_, rec := f.ownedRecord(t, 1, "binding")
	var missing Key
	missing[0] = 0xaa
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"put", func() error { return c.Put(rec) }},
		{"get-hit", func() error {
			if _, found, err := c.Get(rec.Key); err != nil || !found {
				return fmt.Errorf("found=%v err=%v", found, err)
			}
			return nil
		}},
		{"get-miss", func() error {
			if _, found, err := c.Get(missing); err != nil || found {
				return fmt.Errorf("found=%v err=%v", found, err)
			}
			return nil
		}},
	} {
		sent, total := f.net.Stats("client").Sent, f.net.TotalMessages()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		// One call is one request and one response.
		if d := f.net.Stats("client").Sent - sent; d != 1 {
			t.Errorf("%s: client sent %d requests, want 1", op.name, d)
		}
		if d := f.net.TotalMessages() - total; d != 2 {
			t.Errorf("%s: %d messages on the bus, want 2", op.name, d)
		}
	}
}

// TestZeroLeaseGrantIsNotCached: a node whose lease TTL truncates to a 0 ms
// grant grants no lease, so a reader on the default client TTL must not
// serve the record from its cache.
func TestZeroLeaseGrantIsNotCached(t *testing.T) {
	f, writer := replicatedFixture(t, 3, replica.Config{N: 3, W: 2, R: 2, LeaseTTL: 500 * time.Microsecond}, false, 0)
	_, rec := f.ownedRecord(t, 1, "binding")
	if err := writer.Put(rec); err != nil {
		t.Fatal(err)
	}
	ep, err := f.net.Listen("reader", func(bus.Address, any) (any, error) { return Ack{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewClient(ep, f.cluster.Addrs(), OneHop)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		before := f.net.TotalMessages()
		if _, found, err := reader.Get(rec.Key); err != nil || !found {
			t.Fatalf("get %d = %v, %v", i, found, err)
		}
		if f.net.TotalMessages() == before {
			t.Fatalf("get %d never reached the wire", i)
		}
	}
	if hits, _, _, _ := reader.LeaseStats(); hits != 0 {
		t.Fatalf("lease hits = %d, want 0 under a zero grant", hits)
	}
}
