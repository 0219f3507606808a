package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// These tests cover the broker's durability round trip at the unit level:
// journal → kill → recover → identical observable state. The byte-exact
// crash-point sweeps live in crash_test.go.

func persistedFixture(t *testing.T, cfg *wal.Config) *fixture {
	t.Helper()
	if cfg == nil {
		cfg = &wal.Config{Policy: wal.FsyncAlways}
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	return newFixture(t, fixtureOpts{persist: cfg})
}

func TestBrokerRecoversDurableState(t *testing.T) {
	f := persistedFixture(t, nil)
	alice := f.addPeer("alice", nil)
	bob := f.addPeer("bob", nil)
	carol := f.addPeer("carol", nil)

	// Build up state of every journaled kind: minted coins, an issued
	// (held) coin, a deposited coin, a downtime re-binding, a frozen
	// identity, and a fraud case.
	idDeposit, err := alice.Purchase(3, false)
	if err != nil {
		t.Fatal(err)
	}
	idHeld, err := alice.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	idSelf, err := alice.Purchase(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), idDeposit); err != nil {
		t.Fatal(err)
	}
	if err := bob.Deposit(idDeposit, bob.ID()); err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), idHeld); err != nil {
		t.Fatal(err)
	}
	// Downtime path: the owner goes offline, the holder re-binds to carol
	// through the broker.
	alice.GoOffline()
	if err := bob.TransferViaBroker(carol.Addr(), idHeld); err != nil {
		t.Fatal(err)
	}
	f.broker.Freeze("mallory")
	if err := f.broker.PersistenceErr(); err != nil {
		t.Fatalf("journaling failed before restart: %v", err)
	}

	wantIssued := f.broker.IssuedValue()
	wantDeposited := f.broker.DepositedValue()
	wantBalance := f.broker.Balance(bob.ID())
	wantCases := len(f.broker.FraudCases())

	f.restartBroker()

	if !f.broker.Recovered() {
		t.Fatal("restarted broker did not report recovered state")
	}
	if got := f.broker.IssuedValue(); got != wantIssued {
		t.Errorf("IssuedValue = %d, want %d", got, wantIssued)
	}
	if got := f.broker.DepositedValue(); got != wantDeposited {
		t.Errorf("DepositedValue = %d, want %d", got, wantDeposited)
	}
	if got := f.broker.Balance(bob.ID()); got != wantBalance {
		t.Errorf("Balance(bob) = %d, want %d", got, wantBalance)
	}
	if got := len(f.broker.FraudCases()); got != wantCases {
		t.Errorf("FraudCases = %d, want %d", got, wantCases)
	}
	if !f.broker.Frozen("mallory") {
		t.Error("freeze did not survive the restart")
	}
	if f.broker.Frozen("alice") || f.broker.Frozen("bob") {
		t.Error("recovery froze an honest identity")
	}

	// The already-deposited coin must stay deposited (white box: the
	// record is the double-deposit gate), and the broker must refuse to
	// service it again.
	if _, ok := f.broker.deposited.Get(idDeposit); !ok {
		t.Error("deposit record lost in restart")
	}
	c, ok := f.broker.coins.Get(idDeposit)
	if !ok {
		t.Fatal("coin registration lost in restart")
	}
	if _, err := f.broker.lookupActiveCoin(c.Pub); !errors.Is(err, ErrAlreadyDeposited) {
		t.Errorf("deposited coin serviceable after restart: %v", err)
	}

	// The downtime re-binding survived: carol deposits the re-bound coin
	// against the recovered broker's state (flavor-two bit comparison
	// against the replayed downtime binding).
	if err := carol.Deposit(idHeld, carol.ID()); err != nil {
		t.Errorf("deposit of re-bound coin after restart: %v", err)
	}

	// The owner's pending sync survived: alice rejoins cleanly and can
	// still spend her remaining self-held coin.
	if err := alice.GoOnline(); err != nil {
		t.Fatalf("owner rejoin after broker restart: %v", err)
	}
	if err := alice.IssueTo(bob.Addr(), idSelf); err != nil {
		t.Fatalf("issue after restart: %v", err)
	}
	if err := bob.Deposit(idSelf, bob.ID()); err != nil {
		t.Fatalf("deposit after restart: %v", err)
	}
	if got, want := f.broker.DepositedValue(), f.broker.IssuedValue(); got != want {
		t.Errorf("after full drain: deposited %d != issued %d", got, want)
	}
	if err := f.broker.PersistenceErr(); err != nil {
		t.Fatalf("journaling failed after restart: %v", err)
	}
}

// TestDowntimeProofSurvivesSnapshotCrash: a snapshot cut while a downtime
// transfer is delivering must keep the relinquishment proof that justifies
// the binding the payee is about to hold. The journal is copied while the
// payee still blocks in DeliverRequest — a crash at that instant — and a
// broker recovered from the copy must hold the proof.
func TestDowntimeProofSurvivesSnapshotCrash(t *testing.T) {
	f := persistedFixture(t, nil)
	alice := f.addPeer("alice", nil)
	bob := f.addPeer("bob", nil)
	carol := f.addPeer("carol", nil)
	id, err := alice.Purchase(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), id); err != nil {
		t.Fatal(err)
	}
	hc, _ := bob.held.Get(id)
	seq := hc.binding.Seq
	alice.GoOffline()

	// The slow payee relays to carol, holding deliveries until released.
	entered, release := make(chan struct{}), make(chan struct{})
	var relay bus.Endpoint
	relay, err = f.net.Listen("slow-payee", func(_ bus.Address, msg any) (any, error) {
		if _, ok := msg.(DeliverRequest); ok {
			close(entered)
			<-release
		}
		return relay.Call(carol.Addr(), msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	done := make(chan error, 1)
	go func() { done <- bob.TransferViaBroker("slow-payee", id) }()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("downtime transfer returned before delivery: %v", err)
	}

	crashed := t.TempDir()
	err = func() error {
		if err := f.broker.journal.Snapshot(); err != nil {
			return err
		}
		dir := f.brokerCfg.Persistence.Dir
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, fe := range files {
			b, err := os.ReadFile(filepath.Join(dir, fe.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(crashed, fe.Name()), b, 0o600); err != nil {
				return err
			}
		}
		return nil
	}()
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("downtime transfer: %v", err)
	}

	cfg := f.brokerCfg
	cfg.Addr = "broker-from-crash-copy"
	cfg.Persistence = &wal.Config{Dir: crashed, Policy: wal.FsyncAlways}
	nb, err := RecoverBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	var found bool
	nb.relinquish.View(id, func(proofs map[uint64]RelinquishProof, _ bool) {
		_, found = proofs[seq]
	})
	if !found {
		t.Fatalf("recovered broker has no relinquishment proof for seq %d", seq)
	}
}

// TestSnapshotHoldsOnlyJournaledState: a snapshot cut inside a mint's
// insert-then-rollback window and a punishment's freeze-then-case window
// holds what the journal holds, not what memory held at that instant. The
// rolled-back coin must not be issued after a restart, and a freeze must
// not come back without its fraud case.
func TestSnapshotHoldsOnlyJournaledState(t *testing.T) {
	f := persistedFixture(t, nil)
	u := f.addPeer("u", nil)
	id, err := u.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := f.broker.coins.Get(id)
	ghost := c.Clone()
	ghost.Pub = append(sig.PublicKey(nil), "ghost-coin"...)
	ghost.Value = 7

	f.broker.frozen.Set("u", struct{}{})
	f.broker.coins.Insert(ghost.ID(), ghost)
	if err := f.broker.journal.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f.broker.coins.Delete(ghost.ID()) // the rollback

	f.restartBroker()
	if got := f.broker.IssuedValue(); got != 5 {
		t.Errorf("IssuedValue = %d after restart, want the journaled 5", got)
	}
	cases := 0
	for _, fc := range f.broker.FraudCases() {
		if fc.Punished == "u" {
			cases++
		}
	}
	if f.broker.Frozen("u") && cases == 0 {
		t.Error("u came back frozen with no fraud case")
	}
}

// TestOwnerJournalBytesPerTransferConstant: what a persisted owner journals
// for one transfer does not grow with the coin's history.
func TestOwnerJournalBytesPerTransferConstant(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	ownerCfg := f.peerConfig("owner", nil)
	ownerCfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncNever, SnapshotEvery: 1 << 40}
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
	growth := make(map[int]int64)
	for i := 1; i <= 200; i++ {
		from, to := a, b
		if i%2 == 0 {
			from, to = b, a
		}
		before := owner.journal.LiveSize()
		if err := from.TransferTo(to.Addr(), id); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		growth[i] = owner.journal.LiveSize() - before
	}
	if err := owner.PersistenceErr(); err != nil {
		t.Fatal(err)
	}
	g10, g200 := growth[10], growth[200]
	if g10 <= 0 || g200*10 > g10*11 || g200*10 < g10*9 {
		t.Fatalf("owner journal grew %d B on the 10th transfer and %d B on the 200th; want within 10%%", g10, g200)
	}
}

func TestRecoverBrokerRequiresState(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	cfg := f.brokerCfg
	cfg.Addr = "broker-recover-empty"
	cfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways}
	if _, err := RecoverBroker(cfg); err == nil {
		t.Fatal("RecoverBroker succeeded with no durable state")
	}
	cfg.Persistence = nil
	if _, err := RecoverBroker(cfg); err == nil {
		t.Fatal("RecoverBroker succeeded without Persistence")
	}
}

// snapshotRows are the compaction budgets the snapshot tests run under:
// a small live-byte budget, and compaction after every commit.
var snapshotRows = []struct {
	name  string
	every int64
}{{"budget-16KiB", 16 << 10}, {"every-commit", 1}}

// requireSnapshot fails unless the journal in dir replays from a snapshot.
func requireSnapshot(t *testing.T, dir string) {
	t.Helper()
	files, err := wal.Files(nil, dir)
	if err != nil || len(files) == 0 || !strings.HasPrefix(filepath.Base(files[0]), "snap-") {
		t.Fatalf("journal was never compacted: %v %v", files, err)
	}
}

// TestBrokerSnapshotCompaction drives enough traffic through a tiny
// journal budget that segments rotate and snapshots get cut — mints,
// deposits, a downtime transfer and a punished fraud report, so every
// broker table enters the fold — then proves a restart from the compacted
// log reproduces the books.
func TestBrokerSnapshotCompaction(t *testing.T) {
	for _, row := range snapshotRows {
		t.Run(row.name, func(t *testing.T) {
			f := persistedFixture(t, &wal.Config{
				Dir:           t.TempDir(),
				Policy:        wal.FsyncNever,
				SegmentSize:   4 << 10,
				SnapshotEvery: row.every,
			})
			alice := f.addPeer("alice-compact", nil)
			bob := f.addPeer("bob-compact", nil)
			carol := f.addPeer("carol-compact", nil)
			for i := 0; i < 120; i++ {
				id, err := alice.Purchase(2, false)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					if err := alice.IssueTo(bob.Addr(), id); err != nil {
						t.Fatal(err)
					}
					if err := bob.Deposit(id, bob.ID()); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A downtime transfer: binding, sync queue and proof records.
			idDown, err := alice.Purchase(3, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := alice.IssueTo(bob.Addr(), idDown); err != nil {
				t.Fatal(err)
			}
			alice.GoOffline()
			if err := bob.TransferViaBroker(carol.Addr(), idDown); err != nil {
				t.Fatal(err)
			}
			// A punished fraud report: freeze and case records.
			u := f.addPeer("u", nil)
			v := f.addPeer("v", nil)
			idFraud, err := u.Purchase(1, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.IssueTo(v.Addr(), idFraud); err != nil {
				t.Fatal(err)
			}
			accomplice, err := u.suite.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			forged, err := u.ForgeDoubleIssue(idFraud, accomplice.Public)
			if err != nil {
				t.Fatal(err)
			}
			mine, _ := v.HeldBinding(idFraud)
			if verdict := v.reportFraud(oc2pub(idFraud), mine, forged); !strings.Contains(verdict, "owner-fraud") {
				t.Fatalf("verdict = %q, want owner-fraud", verdict)
			}
			if err := f.broker.PersistenceErr(); err != nil {
				t.Fatalf("journaling: %v", err)
			}
			requireSnapshot(t, f.brokerCfg.Persistence.Dir)

			wantIssued := f.broker.IssuedValue()
			wantDeposited := f.broker.DepositedValue()
			wantBalance := f.broker.Balance(bob.ID())
			wantCases := len(f.broker.FraudCases())
			wantDown, _ := f.broker.downtime.Get(idDown)

			f.restartBroker()

			if got := f.broker.IssuedValue(); got != wantIssued {
				t.Errorf("IssuedValue = %d, want %d", got, wantIssued)
			}
			if got := f.broker.DepositedValue(); got != wantDeposited {
				t.Errorf("DepositedValue = %d, want %d", got, wantDeposited)
			}
			if got := f.broker.Balance(bob.ID()); got != wantBalance {
				t.Errorf("Balance(bob) = %d, want %d", got, wantBalance)
			}
			if got := len(f.broker.FraudCases()); got != wantCases || !f.broker.Frozen("u") {
				t.Errorf("after restart: %d cases, u frozen %v; want %d cases, frozen", got, f.broker.Frozen("u"), wantCases)
			}
			if got, _ := f.broker.downtime.Get(idDown); wantDown == nil || got == nil || !got.Equal(wantDown) {
				t.Errorf("downtime binding = %v, want %v", got, wantDown)
			}
			if err := carol.Deposit(idDown, carol.ID()); err != nil {
				t.Errorf("deposit of the downtime-transferred coin after restart: %v", err)
			}
			if err := alice.GoOnline(); err != nil {
				t.Errorf("owner rejoin after restart: %v", err)
			}
		})
	}
}

func TestPeerRecoversWallet(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	aliceCfg := f.peerConfig("alice", nil)
	aliceCfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways}
	alice := f.addPeerWith(aliceCfg)
	bob := f.addPeer("bob", nil)
	carol := f.addPeer("carol", nil)

	// Owned coins in every state: issued-and-transferred (audit trail),
	// self-held, plus a held coin received from bob.
	idA, err := alice.Purchase(3, false)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := alice.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), idA); err != nil {
		t.Fatal(err)
	}
	if err := bob.TransferTo(carol.Addr(), idA); err != nil {
		t.Fatal(err)
	}
	idC, err := bob.Purchase(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.IssueTo(alice.Addr(), idC); err != nil {
		t.Fatal(err)
	}
	if err := alice.PersistenceErr(); err != nil {
		t.Fatalf("journaling failed before restart: %v", err)
	}
	wantPub := alice.PublicKey()
	wantHeld := alice.HeldValue()

	alice = f.restartPeer(alice, aliceCfg)

	if !alice.Recovered() {
		t.Fatal("restarted peer did not report recovered state")
	}
	if !alice.PublicKey().Equal(wantPub) {
		t.Error("identity key changed across restart")
	}
	if got := len(alice.OwnedCoins()); got != 2 {
		t.Errorf("owned %d coins, want 2", got)
	}
	if got := alice.SelfHeldCoins(); len(got) != 1 || got[0] != idB {
		t.Errorf("self-held = %v, want [%s]", got, idB)
	}
	if got := alice.HeldCoins(); len(got) != 1 || got[0] != idC {
		t.Errorf("held = %v, want [%s]", got, idC)
	}
	if got := alice.HeldValue(); got != wantHeld {
		t.Errorf("held value = %d, want %d", got, wantHeld)
	}
	// White box: the issued coin's binding and audit trail survived.
	oc, ok := alice.owned.Get(idA)
	if !ok {
		t.Fatal("issued coin lost")
	}
	oc.mu.Lock()
	seq := uint64(0)
	if oc.binding != nil {
		seq = oc.binding.Seq
	}
	trail := len(oc.log)
	oc.mu.Unlock()
	if seq == 0 {
		t.Error("issued coin recovered without a binding")
	}
	if trail != 1 {
		t.Errorf("audit trail has %d proofs, want 1", trail)
	}

	// The recovered wallet is fully operational: the held coin's holder key
	// still deposits, the recovered owner still services transfers and
	// renewals with its recovered coin keys, and the self-held coin spends.
	if err := alice.Deposit(idC, alice.ID()); err != nil {
		t.Fatalf("deposit of recovered held coin: %v", err)
	}
	if _, err := carol.Renew(idA); err != nil {
		t.Fatalf("renewal against recovered owner: %v", err)
	}
	if err := carol.TransferTo(bob.Addr(), idA); err != nil {
		t.Fatalf("transfer against recovered owner: %v", err)
	}
	if err := alice.IssueTo(bob.Addr(), idB); err != nil {
		t.Fatalf("issue of recovered self-held coin: %v", err)
	}
	if err := bob.Deposit(idA, bob.ID()); err != nil {
		t.Fatal(err)
	}
	if err := bob.Deposit(idB, bob.ID()); err != nil {
		t.Fatal(err)
	}
	if err := alice.PersistenceErr(); err != nil {
		t.Fatalf("journaling failed after restart: %v", err)
	}
}

func TestRecoverPeerRequiresState(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	cfg := f.peerConfig("dave", nil)
	cfg.Persistence = &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways}
	if _, err := RecoverPeer(cfg); err == nil {
		t.Fatal("RecoverPeer succeeded with no durable state")
	}
	cfg.Persistence = nil
	if _, err := RecoverPeer(cfg); err == nil {
		t.Fatal("RecoverPeer succeeded without Persistence")
	}
}

// TestPeerSnapshotCompaction: an owner whose journal is compacted while
// holders transfer its coins — relinquishment proofs recorded and, past
// AuditLogCap, evicted — recovers the same wallet, the same owner-side
// bindings and the same dispute answers.
func TestPeerSnapshotCompaction(t *testing.T) {
	for _, row := range snapshotRows {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t, fixtureOpts{})
			aliceCfg := f.peerConfig("alice-compact", nil)
			aliceCfg.AuditLogCap = 2
			aliceCfg.Persistence = &wal.Config{
				Dir:           t.TempDir(),
				Policy:        wal.FsyncNever,
				SegmentSize:   4 << 10,
				SnapshotEvery: row.every,
			}
			alice := f.addPeerWith(aliceCfg)
			bob := f.addPeer("bob-compact", nil)
			carol := f.addPeer("carol-compact", nil)
			var issued []coin.ID
			for i := 0; i < 60; i++ {
				id, err := alice.Purchase(2, false)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					if err := alice.IssueTo(bob.Addr(), id); err != nil {
						t.Fatal(err)
					}
					issued = append(issued, id)
				}
			}
			// Three owner-serviced hops per coin: three proofs, one evicted.
			for _, id := range issued[:10] {
				for hop := 0; hop < 3; hop++ {
					from, to := bob, carol
					if hop%2 == 1 {
						from, to = carol, bob
					}
					if err := from.TransferTo(to.Addr(), id); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := alice.PersistenceErr(); err != nil {
				t.Fatalf("journaling: %v", err)
			}
			requireSnapshot(t, aliceCfg.Persistence.Dir)
			owner := func(p *Peer, id coin.ID) string {
				b, _ := p.OwnerBinding(id)
				resp, err := p.handleDispute(DisputeRequest{CoinPub: oc2pub(id), FromSeq: b.Seq - min(b.Seq, 3), ToSeq: b.Seq})
				if err != nil {
					t.Fatal(err)
				}
				proofs := resp.(DisputeResponse).Proofs
				if id == issued[0] && len(proofs) != aliceCfg.AuditLogCap {
					t.Fatalf("dispute answer holds %d proofs, want the cap %d", len(proofs), aliceCfg.AuditLogCap)
				}
				out := fmt.Sprintf("%x", b.AppendWire(nil))
				for i := range proofs {
					out += fmt.Sprintf(" %x", proofs[i].appendWire(nil))
				}
				return out
			}
			want := make(map[coin.ID]string)
			for _, id := range issued {
				want[id] = owner(alice, id)
			}
			wantOwned := len(alice.OwnedCoins())
			wantSelf := len(alice.SelfHeldCoins())

			alice = f.restartPeer(alice, aliceCfg)

			if got := len(alice.OwnedCoins()); got != wantOwned {
				t.Errorf("owned = %d, want %d", got, wantOwned)
			}
			if got := len(alice.SelfHeldCoins()); got != wantSelf {
				t.Errorf("self-held = %d, want %d", got, wantSelf)
			}
			for _, id := range issued {
				if got := owner(alice, id); got != want[id] {
					t.Errorf("coin %x: owner binding and dispute answer changed across the restart", id)
				}
			}
		})
	}
}
