package dht

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
	"whopay/internal/sig"
)

type fixture struct {
	net     *bus.Memory
	cluster *Cluster
	suite   sig.Suite
	broker  sig.KeyPair
}

// newFixture builds an in-memory cluster and a client that both run N =
// replicas (W and R defaulted, clamped so W+R > N).
func newFixture(t testing.TB, nodes, replicas int) (*fixture, *Client) {
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
		Network: net, Scheme: scheme, Nodes: nodes,
		Trusted: []sig.PublicKey{broker.Public}, Replication: &rep,
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

func (f *fixture) ownedRecord(t testing.TB, version uint64, value string) (sig.KeyPair, Record) {
	t.Helper()
	kp, err := f.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := SignRecord(f.suite, kp, KeyFor(kp.Public), version, []byte(value))
	if err != nil {
		t.Fatal(err)
	}
	return kp, rec
}

func TestPutGetOneHop(t *testing.T) {
	f, c := newFixture(t, 8, 3)
	_, rec := f.ownedRecord(t, 1, "binding-v1")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get(rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !bytes.Equal(got.Value, rec.Value) {
		t.Fatalf("Get = %+v found=%v", got, found)
	}
}

func TestGetMissing(t *testing.T) {
	_, c := newFixture(t, 4, 2)
	var key Key
	key[0] = 0xaa
	_, found, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found a record that was never written")
	}
}

func TestWriteACLOwnerOnly(t *testing.T) {
	f, c := newFixture(t, 4, 2)
	owner, rec := f.ownedRecord(t, 1, "legit")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	// An attacker with a different key cannot write to the owner's slot.
	attacker, err := f.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := SignRecord(f.suite, attacker, KeyFor(owner.Public), 2, []byte("stolen"))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Put(forged)
	var remote *bus.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("forged put = %v, want remote ACL error", err)
	}
	got, _, err := c.Get(rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, []byte("legit")) {
		t.Fatal("forged write overwrote the record")
	}
}

func TestTrustedWriterCanWriteAnywhere(t *testing.T) {
	f, c := newFixture(t, 4, 2)
	owner, rec := f.ownedRecord(t, 1, "owner-write")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	// The broker (trusted) overwrites with a newer version — the
	// downtime path.
	brokerRec, err := SignRecord(f.suite, f.broker, KeyFor(owner.Public), 2, []byte("broker-write"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(brokerRec); err != nil {
		t.Fatalf("trusted put: %v", err)
	}
	got, _, err := c.Get(rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, []byte("broker-write")) {
		t.Fatal("trusted write not applied")
	}
}

func TestBadSignatureRejected(t *testing.T) {
	f, c := newFixture(t, 4, 2)
	_, rec := f.ownedRecord(t, 1, "v")
	rec.Value = []byte("tampered after signing")
	if err := c.Put(rec); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestStaleVersionRejected(t *testing.T) {
	f, c := newFixture(t, 4, 2)
	owner, rec2 := f.ownedRecord(t, 2, "v2")
	if err := c.Put(rec2); err != nil {
		t.Fatal(err)
	}
	rec1, err := SignRecord(f.suite, owner, rec2.Key, 1, []byte("v1-replay"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(rec1); err == nil {
		t.Fatal("stale version accepted")
	}
	// Same version, same bytes: idempotent OK.
	if err := c.Put(rec2); err != nil {
		t.Fatalf("idempotent re-put rejected: %v", err)
	}
	// Same version, different bytes: conflict (double-spend signature).
	conflict, err := SignRecord(f.suite, owner, rec2.Key, 2, []byte("v2-conflicting"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(conflict); err == nil {
		t.Fatal("conflicting same-version write accepted")
	}
}

func TestReplication(t *testing.T) {
	f, c := newFixture(t, 6, 3)
	_, rec := f.ownedRecord(t, 1, "replicated")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, n := range f.cluster.Nodes() {
		if _, ok := n.store.Get(rec.Key); ok {
			holders++
		}
	}
	if holders != 3 {
		t.Fatalf("record on %d nodes, want 3", holders)
	}
}

func TestFailoverToReplica(t *testing.T) {
	f, c := newFixture(t, 6, 3)
	_, rec := f.ownedRecord(t, 1, "survives")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Kill the primary; reads must fall back to a replica.
	primary := c.responsible(rec.Key)[0].addr
	f.net.SetOnline(primary, false)
	c.InvalidateLease(rec.Key) // force the read to the replicas
	got, found, err := c.Get(rec.Key)
	if err != nil {
		t.Fatalf("Get after primary failure: %v", err)
	}
	if !found || !bytes.Equal(got.Value, rec.Value) {
		t.Fatal("replica read mismatch")
	}
}

func TestAllReplicasDown(t *testing.T) {
	f, c := newFixture(t, 3, 3)
	_, rec := f.ownedRecord(t, 1, "v")
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	for _, addr := range f.cluster.Addrs() {
		f.net.SetOnline(addr, false)
	}
	c.InvalidateLease(rec.Key) // force the read to the replicas
	if _, _, err := c.Get(rec.Key); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("got %v, want ErrQuorumFailed", err)
	}
}

func TestSubscribeNotify(t *testing.T) {
	f, _ := newFixture(t, 4, 2)
	var mu sync.Mutex
	var notified []Record
	watcherEp, err := f.net.Listen("watcher", func(from bus.Address, msg any) (any, error) {
		if n, ok := msg.(Notify); ok {
			mu.Lock()
			notified = append(notified, n.Rec)
			mu.Unlock()
		}
		return Ack{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := NewClient(watcherEp, f.cluster.Addrs(), OneHop)
	if err != nil {
		t.Fatal(err)
	}
	owner, rec1 := f.ownedRecord(t, 1, "v1")
	if err := wc.Subscribe(rec1.Key, "watcher"); err != nil {
		t.Fatal(err)
	}
	if err := wc.Put(rec1); err != nil {
		t.Fatal(err)
	}
	rec2, err := SignRecord(f.suite, owner, rec1.Key, 2, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Put(rec2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 2 {
		t.Fatalf("got %d notifications, want 2", len(notified))
	}
	if !bytes.Equal(notified[1].Value, []byte("v2")) {
		t.Fatal("second notification payload wrong")
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	f, _ := newFixture(t, 4, 2)
	var mu sync.Mutex
	count := 0
	watcherEp, err := f.net.Listen("watcher", func(from bus.Address, msg any) (any, error) {
		if _, ok := msg.(Notify); ok {
			mu.Lock()
			count++
			mu.Unlock()
		}
		return Ack{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := NewClient(watcherEp, f.cluster.Addrs(), OneHop)
	if err != nil {
		t.Fatal(err)
	}
	owner, rec1 := f.ownedRecord(t, 1, "v1")
	if err := wc.Subscribe(rec1.Key, "watcher"); err != nil {
		t.Fatal(err)
	}
	if err := wc.Put(rec1); err != nil {
		t.Fatal(err)
	}
	if err := wc.Unsubscribe(rec1.Key, "watcher"); err != nil {
		t.Fatal(err)
	}
	rec2, err := SignRecord(f.suite, owner, rec1.Key, 2, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Put(rec2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("got %d notifications, want 1", count)
	}
}

func TestOfflineWatcherDoesNotBlockWrites(t *testing.T) {
	f, _ := newFixture(t, 4, 2)
	watcherEp, err := f.net.Listen("watcher", func(bus.Address, any) (any, error) { return Ack{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	wc, err := NewClient(watcherEp, f.cluster.Addrs(), OneHop)
	if err != nil {
		t.Fatal(err)
	}
	_, rec := f.ownedRecord(t, 1, "v1")
	if err := wc.Subscribe(rec.Key, "watcher"); err != nil {
		t.Fatal(err)
	}
	f.net.SetOnline("watcher", false)
	if err := wc.Put(rec); err != nil {
		t.Fatalf("put with offline watcher: %v", err)
	}
}

func TestEmptyMembership(t *testing.T) {
	net := bus.NewMemory()
	ep, err := net.Listen("x", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ep, nil, OneHop); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("got %v, want ErrNoNodes", err)
	}
}

func TestClusterValidation(t *testing.T) {
	net := bus.NewMemory()
	if _, err := NewCluster(net, sig.NewNull(1), 0); err == nil {
		t.Fatal("NewCluster accepted 0 nodes")
	}
	// N clamps to node count.
	c, err := NewClusterWithConfig(ClusterConfig{
		Network: net, Scheme: sig.NewNull(1), Nodes: 2, Replication: &replica.Config{N: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := c.nodes[0].rep.N; n != 2 {
		t.Fatalf("N = %d, want clamped 2", n)
	}
}

// TestKeysBalanced: records spread across nodes rather than piling on one.
func TestKeysBalanced(t *testing.T) {
	f, c := newFixture(t, 8, 1)
	for i := 0; i < 200; i++ {
		_, rec := f.ownedRecord(t, 1, "v")
		if err := c.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	max := 0
	for _, n := range f.cluster.Nodes() {
		if s := n.StoreSize(); s > max {
			max = s
		}
	}
	if max == 200 {
		t.Fatal("all records landed on a single node")
	}
}

func BenchmarkPutOneHop(b *testing.B) {
	net := bus.NewMemory()
	scheme := sig.NewNull(401)
	suite := sig.Suite{Scheme: scheme}
	cluster, err := NewCluster(net, scheme, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ep, err := net.Listen("bench", func(bus.Address, any) (any, error) { return Ack{}, nil })
	if err != nil {
		b.Fatal(err)
	}
	client, err := NewClient(ep, cluster.Addrs(), OneHop)
	if err != nil {
		b.Fatal(err)
	}
	kp, err := suite.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	key := KeyFor(kp.Public)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := SignRecord(suite, kp, key, uint64(i+1), []byte("v"))
		if err != nil {
			b.Fatal(err)
		}
		if err := client.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
}
