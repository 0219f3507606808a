package core

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// fedFixture wires two directly-constructed federated brokers (shard 0 and
// shard 1) on one memory bus — the smallest world in which cross-shard
// settlement can be exercised and crashed deterministically, without the
// federation package's lease machinery in the way.
type fedFixture struct {
	t      *testing.T
	net    *bus.Memory
	scheme sig.Scheme
	clock  *fakeClock
	judge  *Judge
	dir    *Directory

	mu      sync.Mutex
	addrs   [2]bus.Address
	pubs    [2]sig.PublicKey
	brokers [2]*Broker
	cfgs    [2]BrokerConfig

	seq int
}

// fedRouter routes peers by the fixture's static shard table.
type fedRouter struct{ f *fedFixture }

func (r fedRouter) NumShards() int { return 2 }
func (r fedRouter) Leader(shard int) (bus.Address, bool) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.f.addrs[shard], r.f.addrs[shard] != ""
}
func (r fedRouter) BrokerPub(shard int) sig.PublicKey {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.f.pubs[shard]
}

func newFedFixture(t *testing.T) *fedFixture {
	t.Helper()
	f := &fedFixture{
		t:      t,
		net:    bus.NewMemory(),
		scheme: sig.NewNull(1000),
		clock:  newFakeClock(),
		dir:    NewDirectory(),
	}
	judge, err := NewJudge(f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	f.judge = judge
	for shard := 0; shard < 2; shard++ {
		f.cfgs[shard] = BrokerConfig{
			Network:   f.net,
			Addr:      bus.Address(fmt.Sprintf("fed-broker-%d", shard)),
			Scheme:    f.scheme,
			Clock:     f.clock.Now,
			Directory: f.dir,
			GroupPub:  judge.GroupPublicKey(),
			Persistence: &wal.Config{
				Dir:    t.TempDir(),
				Policy: wal.FsyncNever,
			},
			Federation: &FederationConfig{
				Index:  shard,
				Shards: 2,
				LeaderAddr: func(s int) (bus.Address, bool) {
					return fedRouter{f}.Leader(s)
				},
				ShardPub: func(s int) (sig.PublicKey, bool) {
					pub := fedRouter{f}.BrokerPub(s)
					return pub, len(pub) > 0
				},
				SettleRetry: 3 * time.Millisecond,
			},
		}
		b, err := NewBroker(f.cfgs[shard])
		if err != nil {
			t.Fatal(err)
		}
		f.setBroker(shard, b)
	}
	t.Cleanup(func() {
		for s := 0; s < 2; s++ {
			if b := f.broker(s); b != nil {
				b.Close()
			}
		}
	})
	return f
}

func (f *fedFixture) setBroker(shard int, b *Broker) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.brokers[shard] = b
	if b != nil {
		f.addrs[shard] = b.Addr()
		f.pubs[shard] = b.PublicKey()
	}
}

func (f *fedFixture) broker(shard int) *Broker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.brokers[shard]
}

// crashBroker kills a shard's broker without grace; the shard is
// unreachable until recoverBroker.
func (f *fedFixture) crashBroker(shard int) {
	f.t.Helper()
	b := f.broker(shard)
	if b == nil {
		f.t.Fatalf("shard %d already down", shard)
	}
	_ = b.Close()
	f.mu.Lock()
	f.brokers[shard] = nil
	f.mu.Unlock()
}

// recoverBroker restarts a crashed shard from its journal.
func (f *fedFixture) recoverBroker(shard int) *Broker {
	f.t.Helper()
	b, err := RecoverBroker(f.cfgs[shard])
	if err != nil {
		f.t.Fatalf("recovering shard %d: %v", shard, err)
	}
	f.setBroker(shard, b)
	return b
}

func (f *fedFixture) addPeer(id string) *Peer {
	f.t.Helper()
	f.seq++
	p, err := NewPeer(PeerConfig{
		ID:         id,
		Network:    f.net,
		Addr:       bus.Address(fmt.Sprintf("fedaddr:%d", f.seq)),
		Scheme:     f.scheme,
		Clock:      f.clock.Now,
		Directory:  f.dir,
		BrokerAddr: f.addrs[0],
		BrokerPub:  f.pubs[0],
		Router:     fedRouter{f},
		Judge:      f.judge,
		Rand:       mrand.New(mrand.NewSource(int64(f.seq) * 60013)),
		Retry: &bus.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Factor:      2,
		},
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { p.Close() })
	return p
}

// refOnShard finds a payout reference homing on the wanted shard.
func refOnShard(shard int) string {
	for i := 0; ; i++ {
		ref := fmt.Sprintf("ref-%d", i)
		if ShardOfKey(ref, 2) == shard {
			return ref
		}
	}
}

// mintHeldOnShard purchases coins at payer and pays them to payee until the
// payee holds one whose ID homes on the wanted shard; returns that coin.
func mintHeldOnShard(t *testing.T, f *fedFixture, payer, payee *Peer, payeeID string, shard int) coin.ID {
	t.Helper()
	entry, ok := f.dir.Lookup(payeeID)
	if !ok {
		t.Fatalf("payee %q not in directory", payeeID)
	}
	for try := 0; try < 64; try++ {
		if _, err := payer.Purchase(1, false); err != nil {
			t.Fatalf("purchase: %v", err)
		}
		if _, err := payer.Pay(entry.Addr, 1, PolicyI); err != nil {
			t.Fatalf("pay: %v", err)
		}
		for _, id := range payee.HeldCoins() {
			if ShardOfKey(string(id), 2) == shard {
				return id
			}
		}
	}
	t.Fatalf("no coin homed on shard %d after 64 mints", shard)
	return ""
}

// waitBalance polls a broker's payout balance until it reaches want.
func waitBalance(t *testing.T, b *Broker, ref string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := b.Balance(ref); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("balance(%q) = %d, want %d after %v", ref, b.Balance(ref), want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrossShardSettlementCreditsHomeShard: a deposit redeemed on shard 0
// whose payout reference homes on shard 1 must credit shard 1 exactly once,
// with the intent journaled and acknowledged.
func TestCrossShardSettlementCreditsHomeShard(t *testing.T) {
	f := newFedFixture(t)
	u := f.addPeer("u")
	v := f.addPeer("v")
	ref := refOnShard(1)

	id := mintHeldOnShard(t, f, u, v, "v", 0)
	if err := v.Deposit(id, ref); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	waitBalance(t, f.broker(1), ref, 1, 2*time.Second)
	// The intent must drain: Done recorded, nothing pending.
	deadline := time.Now().Add(2 * time.Second)
	for f.broker(0).PendingSettlements() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d settlements still pending", f.broker(0).PendingSettlements())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := f.broker(0).Balance(ref); got != 0 {
		t.Errorf("deposit shard kept a credit of %d for a foreign ref", got)
	}
}

// TestSettlementSurvivesDepositShardCrash: the payout shard is down when the
// deposit commits, the deposit shard crashes with the settlement pending,
// and both recover — the journaled intent must be resent and credit exactly
// once. This is the crash-between-intent-and-commit window.
func TestSettlementSurvivesDepositShardCrash(t *testing.T) {
	f := newFedFixture(t)
	u := f.addPeer("u")
	v := f.addPeer("v")
	ref := refOnShard(1)

	id := mintHeldOnShard(t, f, u, v, "v", 0)

	// Take the payout shard down; the deposit must still commit locally,
	// with the cross-shard credit parked as a pending intent.
	f.crashBroker(1)
	if err := v.Deposit(id, ref); err != nil {
		t.Fatalf("deposit with payout shard down: %v", err)
	}
	if got := f.broker(0).PendingSettlements(); got != 1 {
		t.Fatalf("pending settlements = %d, want 1", got)
	}

	// Crash the deposit shard too and recover it while the payout shard is
	// still down: the intent lives in shard 0's journal, so recovery must
	// re-queue it, and nothing can acknowledge it yet.
	f.crashBroker(0)
	b0 := f.recoverBroker(0)
	if got := b0.PendingSettlements(); got != 1 {
		t.Fatalf("recovered pending settlements = %d, want 1", got)
	}
	// Bring the payout shard back; the re-queued intent must now deliver.
	f.recoverBroker(1)
	waitBalance(t, f.broker(1), ref, 1, 2*time.Second)

	deadline := time.Now().Add(2 * time.Second)
	for b0.PendingSettlements() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("settlement never acknowledged after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSettlementReplayDedup: the payout shard must credit a settlement
// exactly once no matter how many times it is replayed — including across
// its own crash and recovery (the dedup record is durable).
func TestSettlementReplayDedup(t *testing.T) {
	f := newFedFixture(t)
	ref := refOnShard(1)
	b0, b1 := f.broker(0), f.broker(1)

	req := SettleRequest{
		CoinID:    []byte("settle-replay-coin"),
		PayoutRef: ref,
		Amount:    5,
		FromShard: 0,
	}
	var err error
	req.Sig, err = b0.suite.Sign(b0.keys.Private, settleMessage(req.CoinID, req.PayoutRef, req.Amount, req.FromShard))
	if err != nil {
		t.Fatal(err)
	}

	probe, err := f.net.Listen("probe", func(bus.Address, any) (any, error) {
		return nil, ErrBadRequest
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()

	for i := 0; i < 3; i++ {
		resp, err := probe.Call(b1.Addr(), req)
		if err != nil {
			t.Fatalf("settle replay %d: %v", i, err)
		}
		if _, ok := resp.(SettleResponse); !ok {
			t.Fatalf("settle replay %d answered %T", i, resp)
		}
	}
	if got := b1.Balance(ref); got != 5 {
		t.Fatalf("balance after triple replay = %d, want 5 (exactly-once broken)", got)
	}

	// The dedup record must survive a crash: recover and replay again.
	f.crashBroker(1)
	b1 = f.recoverBroker(1)
	if got := b1.Balance(ref); got != 5 {
		t.Fatalf("balance after recovery = %d, want 5", got)
	}
	if _, err := probe.Call(b1.Addr(), req); err != nil {
		t.Fatalf("post-recovery replay: %v", err)
	}
	if got := b1.Balance(ref); got != 5 {
		t.Fatalf("balance after post-recovery replay = %d, want 5", got)
	}
}

// TestSettlementRejectsBadSignature: with ShardPub wired, a settlement not
// signed by the claimed shard's broker key must be refused.
func TestSettlementRejectsBadSignature(t *testing.T) {
	f := newFedFixture(t)
	ref := refOnShard(1)
	b1 := f.broker(1)

	req := SettleRequest{
		CoinID:    []byte("forged-coin"),
		PayoutRef: ref,
		Amount:    100,
		FromShard: 0,
		Sig:       []byte("not-a-signature"),
	}
	probe, err := f.net.Listen("probe", func(bus.Address, any) (any, error) {
		return nil, ErrBadRequest
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := probe.Call(b1.Addr(), req); err == nil {
		t.Fatal("payout shard accepted a forged settlement")
	}
	if got := b1.Balance(ref); got != 0 {
		t.Fatalf("forged settlement credited %d", got)
	}
}

// TestWrongShardRejectedWithRedirect: a request for a foreign coin must be
// refused with ErrWrongShard and a redirect hint at the owning shard.
func TestWrongShardRejectedWithRedirect(t *testing.T) {
	f := newFedFixture(t)
	u := f.addPeer("u")
	v := f.addPeer("v")
	id := mintHeldOnShard(t, f, u, v, "v", 1)

	// Replay the deposit shape at the WRONG shard directly.
	req := DepositRequest{CoinPub: sig.PublicKey(id), PayoutRef: "x"}
	probe, err := f.net.Listen("probe", func(bus.Address, any) (any, error) {
		return nil, ErrBadRequest
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	_, err = probe.Call(f.broker(0).Addr(), req)
	if !errors.Is(err, ErrWrongShard) {
		t.Fatalf("wrong-shard deposit answered %v, want ErrWrongShard", err)
	}
	hint, ok := bus.RedirectHint(err)
	if !ok {
		t.Fatal("ErrWrongShard carried no redirect hint")
	}
	if want := f.broker(1).Addr(); hint != want {
		t.Errorf("redirect hint %q, want owning shard %q", hint, want)
	}
}
