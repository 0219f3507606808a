package dht

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// persistedFixture builds a durable cluster with the broker as trusted
// writer, cluster and client both at N = replicas. snapshotEvery is the
// nodes' compaction budget (0: the default).
func persistedFixture(t *testing.T, nodes, replicas int, snapshotEvery int64) (*fixture, *Client) {
	t.Helper()
	net := bus.NewMemory()
	scheme := sig.NewNull(400)
	suite := sig.Suite{Scheme: scheme}
	broker, err := suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.Config{N: replicas}
	cluster, err := NewClusterWithConfig(ClusterConfig{
		Network:     net,
		Scheme:      scheme,
		Nodes:       nodes,
		Replication: &rep,
		Trusted:     []sig.PublicKey{broker.Public},
		Persistence: &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways, SnapshotEvery: snapshotEvery},
	})
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
	client.WithReplication(rep)
	return &fixture{net: net, cluster: cluster, suite: suite, broker: broker}, client
}

// TestNodeRestartRejoins: a crash-restarted node rejoins with its records
// and subscriptions intact and keeps serving, also when its journal was
// compacted after every commit.
func TestNodeRestartRejoins(t *testing.T) {
	for _, row := range []struct {
		name  string
		every int64
	}{{"default-budget", 0}, {"every-commit", 1}} {
		t.Run(row.name, func(t *testing.T) { testNodeRestartRejoins(t, row.every) })
	}
}

func testNodeRestartRejoins(t *testing.T, snapshotEvery int64) {
	f, c := persistedFixture(t, 4, 2, snapshotEvery)

	var mu sync.Mutex
	var notified []Record
	if _, err := f.net.Listen("watcher", func(_ bus.Address, msg any) (any, error) {
		if n, ok := msg.(Notify); ok {
			mu.Lock()
			notified = append(notified, n.Rec)
			mu.Unlock()
		}
		return Ack{}, nil
	}); err != nil {
		t.Fatal(err)
	}

	owners := make([]sig.KeyPair, 8)
	recs := make([]Record, 8)
	for i := range recs {
		owners[i], recs[i] = f.ownedRecord(t, 1, fmt.Sprintf("binding-%d", i))
		if err := c.Put(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Subscribe(recs[0].Key, "watcher"); err != nil {
		t.Fatal(err)
	}

	for i := range f.cluster.Nodes() {
		if err := f.cluster.Restart(i); err != nil {
			t.Fatalf("restarting node %d: %v", i, err)
		}
	}
	for i, node := range f.cluster.Nodes() {
		if got := node.Epoch(); got != 2 {
			t.Errorf("node %d epoch = %d after one restart, want 2", i, got)
		}
		if err := node.PersistenceErr(); err != nil {
			t.Errorf("node %d journaling: %v", i, err)
		}
	}

	for i := range recs {
		got, found, err := c.Get(recs[i].Key)
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(got.Value, recs[i].Value) {
			t.Fatalf("record %d lost in restart (found=%v)", i, found)
		}
	}

	// The subscription survived: a post-restart write still notifies.
	rec2, err := SignRecord(f.suite, owners[0], recs[0].Key, 2, []byte("binding-0-v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(rec2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(notified)
	mu.Unlock()
	if n != 1 {
		t.Errorf("watcher got %d notifications after restart, want 1", n)
	}
}

// TestEpochFencesPreCrashRace is the satellite regression test: a write that
// raced the crash cannot clobber the post-recovery binding. The broker (the
// only trusted writer, and the downtime-protocol authority) may refresh a
// record that predates the latest recovery at the same version; everything
// else at that version is refused, in both arrival orders.
func TestEpochFencesPreCrashRace(t *testing.T) {
	f, c := persistedFixture(t, 1, 1, 0)
	owner, rec := f.ownedRecord(t, 5, "pre-crash")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}

	if err := f.cluster.Restart(0); err != nil {
		t.Fatal(err)
	}

	// Arrival order one: the delayed pre-crash owner write lands before
	// the broker's refresh. Owners are not trusted writers, so it cannot
	// supersede the recovered record at the same version.
	stale, err := SignRecord(f.suite, owner, rec.Key, 5, []byte("pre-crash-race"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(stale); err == nil {
		t.Fatal("stale same-version owner write accepted after recovery")
	}
	got, _, err := c.Get(rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, []byte("pre-crash")) {
		t.Fatalf("recovered record clobbered: %q", got.Value)
	}

	// The broker re-asserts the authoritative binding at the same version:
	// accepted exactly once, because the stored record predates the
	// current epoch.
	refresh, err := SignRecord(f.suite, f.broker, rec.Key, 5, []byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(refresh); err != nil {
		t.Fatalf("trusted post-recovery refresh rejected: %v", err)
	}

	// Arrival order two: the pre-crash race arrives after the refresh. The
	// refreshed record carries the current epoch, so even a trusted
	// same-version write is now refused — the post-recovery binding wins.
	race, err := SignRecord(f.suite, f.broker, rec.Key, 5, []byte("pre-crash-race"))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Put(race)
	if err == nil {
		t.Fatal("pre-crash race clobbered the post-recovery binding")
	}
	var remote *bus.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	if err := c.Put(stale); err == nil {
		t.Fatal("stale owner write accepted after refresh")
	}
	got, _, err = c.Get(rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, []byte("post-recovery")) {
		t.Fatalf("post-recovery binding clobbered: %q", got.Value)
	}

	// Ordinary progress is untouched: a higher version still lands.
	next, err := SignRecord(f.suite, owner, rec.Key, 6, []byte("v6"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(next); err != nil {
		t.Fatalf("higher-version write rejected: %v", err)
	}
}

// TestEpochFenceClosedWithinEpoch proves the refresh allowance only opens
// across a restart: within one epoch, equal-version conflicts are refused
// even for trusted writers.
func TestEpochFenceClosedWithinEpoch(t *testing.T) {
	f, c := persistedFixture(t, 1, 1, 0)
	rec, err := SignRecord(f.suite, f.broker, KeyFor(f.broker.Public), 3, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	conflict, err := SignRecord(f.suite, f.broker, rec.Key, 3, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(conflict); err == nil {
		t.Fatal("same-epoch same-version conflict accepted")
	}
}

// TestEpochMonotonic checks the epoch advances on every recovery.
func TestEpochMonotonic(t *testing.T) {
	f, _ := persistedFixture(t, 1, 1, 0)
	for want := uint64(2); want <= 4; want++ {
		if err := f.cluster.Restart(0); err != nil {
			t.Fatal(err)
		}
		if got := f.cluster.Nodes()[0].Epoch(); got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
}
