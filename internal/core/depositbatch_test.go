package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/obs"
	"whopay/internal/wal"
)

// mintHeld purchases a coin and self-issues it so the peer holds it,
// returning the id — the setup every deposit test needs.
func mintHeld(t testing.TB, p *Peer, value int64) coin.ID {
	t.Helper()
	id, err := p.Purchase(value, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IssueTo(p.Addr(), id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestDepositBatchingOutcomes: deposits credit once, the replay is
// rejected with ErrAlreadyDeposited, and the double-deposit fraud case is
// recorded — on a journaled broker, where each deposit is its own flush.
func TestDepositBatchingOutcomes(t *testing.T) {
	f := newFixture(t, fixtureOpts{
		persist: &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways},
	})
	alice := f.addPeer("alice", nil)

	id := mintHeld(t, alice, 5)
	first, replay := alice.DepositTwice(id, "payout:alice")
	if first != nil {
		t.Fatalf("first deposit: %v", first)
	}
	if !errors.Is(replay, ErrAlreadyDeposited) {
		t.Fatalf("replay error = %v, want ErrAlreadyDeposited", replay)
	}
	if got := f.broker.Balance("payout:alice"); got != 5 {
		t.Fatalf("payout balance = %d, want 5", got)
	}
	cases := f.broker.FraudCases()
	if len(cases) != 1 || cases[0].Kind != "double-deposit" {
		t.Fatalf("fraud cases = %+v, want one double-deposit", cases)
	}
}

// TestDepositBatchingConcurrentDurable: many concurrent deposits flush on
// their handler goroutines side by side, every one is credited exactly
// once, and the journal records survive a broker crash/recovery.
func TestDepositBatchingConcurrentDurable(t *testing.T) {
	f := newFixture(t, fixtureOpts{
		persist: &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncNever},
	})
	alice := f.addPeer("alice", nil)

	const n = 48
	ids := make([]coin.ID, n)
	for i := range ids {
		ids[i] = mintHeld(t, alice, 1)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = alice.Deposit(ids[i], "payout:many")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	if got := f.broker.Balance("payout:many"); got != n {
		t.Fatalf("payout balance = %d, want %d", got, n)
	}

	f.restartBroker()
	if got := f.broker.DepositedValue(); got != n {
		t.Fatalf("recovered deposited value = %d, want %d", got, n)
	}
}

// sendDeposits delivers reqs to the broker either as one DepositRequest
// each, in order, or as a single BatchDepositRequest, and returns each
// entry's outcome as the client sees it.
func sendDeposits(t *testing.T, f *fixture, p *Peer, reqs []DepositRequest, batch bool) []error {
	t.Helper()
	out := make([]error, len(reqs))
	if !batch {
		for i, req := range reqs {
			_, out[i] = p.call(f.broker.Addr(), req)
		}
		return out
	}
	raw, err := p.call(f.broker.Addr(), BatchDepositRequest{Deposits: reqs})
	if err != nil {
		t.Fatalf("batch deposit: %v", err)
	}
	for i, r := range raw.(BatchDepositResponse).Results {
		if r.ErrCode != "" || r.ErrMsg != "" {
			out[i] = &bus.RemoteError{Msg: r.ErrMsg, Code: r.ErrCode}
		}
	}
	return out
}

// signedDeposit is alice's deposit request for a held coin, unsent.
func signedDeposit(t *testing.T, p *Peer, id coin.ID) DepositRequest {
	t.Helper()
	req, err := p.depositRequest(id, "payout:parity")
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestDepositSingleMatchesBatch: a DepositRequest is served as a flush of
// one, so one-at-a-time requests and the same entries in one
// BatchDepositRequest must agree on every outcome — the sentinel, the fraud
// cases recorded and the balance credited.
func TestDepositSingleMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prepare func(t *testing.T, f *fixture, alice *Peer) []DepositRequest
		want    []error // nil entries credit
		frauds  int     // double-deposit cases recorded
		balance int64
		msg     string // text the first entry's error must carry
	}{
		{"clean", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			return []DepositRequest{signedDeposit(t, alice, mintHeld(t, alice, 5))}
		}, []error{nil}, 0, 5, ""},
		{"unknown coin", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			req := signedDeposit(t, alice, mintHeld(t, alice, 5))
			req.CoinPub = append(req.CoinPub.Clone(), 0)
			return []DepositRequest{req}
		}, []error{ErrUnknownCoin}, 0, 0, ""},
		{"double deposit", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			id := mintHeld(t, alice, 5)
			req := signedDeposit(t, alice, id)
			if err := alice.Deposit(id, "payout:parity"); err != nil {
				t.Fatal(err)
			}
			return []DepositRequest{req}
		}, []error{ErrAlreadyDeposited}, 1, 5, ""},
		{"stale binding", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			id := mintHeld(t, alice, 5)
			req := signedDeposit(t, alice, id)
			if err := alice.RenewViaBroker(id); err != nil {
				t.Fatal(err)
			}
			return []DepositRequest{req}
		}, []error{ErrStaleBinding}, 0, 0, ""},
		{"revoked credential", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			req := signedDeposit(t, alice, mintHeld(t, alice, 5))
			f.broker.RevokeCredentials(f.judge.Revoke("alice"))
			return []DepositRequest{req}
		}, []error{ErrBadRequest}, 0, 0, "credential revoked"},
		{"no binding on a deposited coin", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			id := mintHeld(t, alice, 5)
			req := signedDeposit(t, alice, id)
			if err := alice.Deposit(id, "payout:parity"); err != nil {
				t.Fatal(err)
			}
			req.PresentedBinding = nil
			return []DepositRequest{req}
		}, []error{ErrBadRequest}, 0, 5, "no binding presented"},
		{"bad holder signature", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			req := signedDeposit(t, alice, mintHeld(t, alice, 5))
			req.HolderSig = append([]byte(nil), req.HolderSig...)
			req.HolderSig[0] ^= 0xff
			return []DepositRequest{req}
		}, []error{ErrNotHolder}, 0, 0, ""},
		// The first entry claims the coin and fails verification; the
		// other two are deferred to a replay flush, where the second
		// credits and the third is a double deposit.
		{"bad first of three for one coin", func(t *testing.T, f *fixture, alice *Peer) []DepositRequest {
			good := signedDeposit(t, alice, mintHeld(t, alice, 5))
			bad := good
			bad.HolderSig = append([]byte(nil), good.HolderSig...)
			bad.HolderSig[0] ^= 0xff
			return []DepositRequest{bad, good, good}
		}, []error{ErrNotHolder, nil, ErrAlreadyDeposited}, 1, 5, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, batch := range []bool{false, true} {
				f := newFixture(t, fixtureOpts{})
				alice := f.addPeer("alice", nil)
				got := sendDeposits(t, f, alice, tc.prepare(t, f, alice), batch)
				for i, err := range got {
					if want := tc.want[i]; (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
						t.Errorf("batch=%v entry %d: error = %v, want %v", batch, i, err, want)
					}
				}
				if tc.msg != "" && !strings.Contains(got[0].Error(), tc.msg) {
					t.Errorf("batch=%v: error = %v, want it to mention %q", batch, got[0], tc.msg)
				}
				cases := f.broker.FraudCases()
				frauds := 0
				for _, c := range cases {
					if c.Kind == "double-deposit" {
						frauds++
					}
				}
				if frauds != tc.frauds || len(cases) != tc.frauds {
					t.Errorf("batch=%v: fraud cases = %+v, want %d double-deposit", batch, cases, tc.frauds)
				}
				if got := f.broker.Balance("payout:parity"); got != tc.balance {
					t.Errorf("batch=%v: balance = %d, want %d", batch, got, tc.balance)
				}
			}
		})
	}
}

// occupancyBuckets reads the deposit-flush occupancy histogram from the
// exposition: cumulative flush counts keyed by the le bound.
func occupancyBuckets(t *testing.T, reg *obs.Registry) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, line := range strings.Split(buf.String(), "\n") {
		var le string
		var n int
		if _, err := fmt.Sscanf(line, "whopay_broker_deposit_batch_occupancy_bucket{le=%q} %d", &le, &n); err == nil {
			out[le] = n
		}
	}
	return out
}

// TestDepositManySplitsLargeBatches: DepositMany keeps every request within
// the broker's batch bound, so 130 coins leave as flushes of 64, 64 and 2,
// and a lone Deposit is a flush of one.
func TestDepositManySplitsLargeBatches(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, fixtureOpts{obs: reg})
	alice := f.addPeer("alice", nil)
	ids, err := alice.PurchaseBatch(131, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := alice.IssueTo(alice.Addr(), id); err != nil {
			t.Fatal(err)
		}
	}
	outcomes, err := alice.DepositMany(ids[:130], "payout:split")
	if err != nil {
		t.Fatalf("DepositMany: %v", err)
	}
	for i, err := range outcomes {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if err := alice.Deposit(ids[130], "payout:split"); err != nil {
		t.Fatal(err)
	}
	if got := f.broker.Balance("payout:split"); got != 131 {
		t.Fatalf("payout balance = %d, want 131", got)
	}
	want := map[string]int{"1": 1, "2": 2, "4": 2, "8": 2, "16": 2, "32": 2, "64": 4, "+Inf": 4}
	if got := occupancyBuckets(t, reg); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("occupancy buckets = %v, want %v", got, want)
	}
}

// TestBatchDepositOversizeRejected: a batch longer than maxDepositBatch is
// a malformed request, rejected whole before any entry is looked at.
func TestBatchDepositOversizeRejected(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	alice := f.addPeer("alice", nil)
	req := signedDeposit(t, alice, mintHeld(t, alice, 1))
	reqs := make([]DepositRequest, maxDepositBatch+1)
	for i := range reqs {
		reqs[i] = req
	}
	if _, err := alice.call(f.broker.Addr(), BatchDepositRequest{Deposits: reqs}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversize batch error = %v, want ErrBadRequest", err)
	}
	if got := f.broker.DepositedValue(); got != 0 {
		t.Fatalf("deposited value = %d after a rejected batch, want 0", got)
	}
}

// TestDepositManyMixedOutcomes drives the explicit BatchDepositRequest
// message: good deposits credit, and a within-batch duplicate of the same
// coin is demultiplexed to its own ErrAlreadyDeposited without poisoning
// its neighbors.
func TestDepositManyMixedOutcomes(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	alice := f.addPeer("alice", nil)

	a := mintHeld(t, alice, 2)
	b := mintHeld(t, alice, 3)
	outcomes, err := alice.DepositMany([]coin.ID{a, b, a}, "payout:mixed")
	if err != nil {
		t.Fatalf("DepositMany: %v", err)
	}
	if outcomes[0] != nil || outcomes[1] != nil {
		t.Fatalf("clean entries errored: %v / %v", outcomes[0], outcomes[1])
	}
	if !errors.Is(outcomes[2], ErrAlreadyDeposited) {
		t.Fatalf("duplicate entry error = %v, want ErrAlreadyDeposited", outcomes[2])
	}
	if got := f.broker.Balance("payout:mixed"); got != 5 {
		t.Fatalf("payout balance = %d, want 5", got)
	}
	if held := alice.HeldCoins(); len(held) != 0 {
		t.Fatalf("deposited coins still held: %v", held)
	}
	cases := f.broker.FraudCases()
	if len(cases) != 1 || cases[0].Kind != "double-deposit" {
		t.Fatalf("fraud cases = %+v, want one double-deposit", cases)
	}
}

// TestBatchDepositEmptyRejected: an empty batch is a malformed request.
func TestBatchDepositEmptyRejected(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	alice := f.addPeer("alice", nil)
	_, err := alice.call(f.broker.Addr(), BatchDepositRequest{})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch error = %v, want ErrBadRequest", err)
	}
}

// depositBenchCoins mints n unit coins into a fresh peer on a broker
// journaled with fsync=always.
func depositBenchCoins(b *testing.B, n int) (*Peer, []coin.ID) {
	f := newFixture(b, fixtureOpts{
		persist: &wal.Config{Dir: b.TempDir(), Policy: wal.FsyncAlways},
	})
	alice := f.addPeer("alice", nil)
	ids, err := alice.PurchaseBatch(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids {
		if err := alice.IssueTo(alice.Addr(), id); err != nil {
			b.Fatal(err)
		}
	}
	return alice, ids
}

// BenchmarkDepositBatch measures broker deposit throughput under an
// fsync-per-commit journal, one op per deposit. single is 64 concurrent
// Deposit callers: each deposit is its own flush, one verify round and one
// fsync. many=64 is DepositMany of 64 coins: one flush, one verify fan-out
// and one fsync for the group. The broker queues nothing, so only a
// depositor that batches its own deposits amortizes the fsync.
func BenchmarkDepositBatch(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		alice, ids := depositBenchCoins(b, b.N)
		const workers = 64
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					if err := alice.Deposit(ids[i], "payout:bench"); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "deposits/s")
	})
	b.Run(fmt.Sprintf("many=%d", maxDepositBatch), func(b *testing.B) {
		alice, ids := depositBenchCoins(b, b.N)
		b.ResetTimer()
		for len(ids) > 0 {
			n := min(len(ids), maxDepositBatch)
			outcomes, err := alice.DepositMany(ids[:n], "payout:bench")
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range outcomes {
				if err != nil {
					b.Fatal(err)
				}
			}
			ids = ids[n:]
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "deposits/s")
	})
}
