package core

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whopay/internal/coin"
	"whopay/internal/obs"
	"whopay/internal/sig"
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

// TestDepositBatchingOutcomes: with the batching stage on, deposits must
// produce the sequential path's outcomes — credit once, reject the replay
// with ErrAlreadyDeposited, and record the double-deposit fraud case.
func TestDepositBatchingOutcomes(t *testing.T) {
	f := newFixture(t, fixtureOpts{
		persist:      &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncAlways},
		depositBatch: &DepositBatchConfig{MaxBatch: 8},
	})
	alice := f.addPeer("alice", nil)

	id := mintHeld(t, alice, 5)
	first, replay := alice.DepositTwice(id, "payout:alice")
	if first != nil {
		t.Fatalf("first deposit through the batcher: %v", first)
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

// TestDepositBatchingConcurrentDurable: many concurrent deposits flow
// through the batcher, every one is credited exactly once, and the batched
// journal records survive a broker crash/recovery — replays against the
// recovered broker still bounce.
func TestDepositBatchingConcurrentDurable(t *testing.T) {
	f := newFixture(t, fixtureOpts{
		persist:      &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncNever},
		depositBatch: &DepositBatchConfig{MaxBatch: 16},
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

// gateScheme wraps a scheme so a test can park every Verify — and with it
// the batch worker, which verifies inside a flush — until released. Nothing
// on the depositor's side of a deposit verifies, so while the gate holds,
// new deposits still reach the queue.
type gateScheme struct {
	sig.Scheme
	hold    atomic.Bool
	entered chan struct{} // one token per Verify that parked (never blocks)
	release chan struct{}
}

func newGateScheme() *gateScheme {
	return &gateScheme{
		Scheme:  sig.NewNull(1000),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (g *gateScheme) Verify(pub sig.PublicKey, msg, sigBytes []byte) error {
	if g.hold.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	return g.Scheme.Verify(pub, msg, sigBytes)
}

// open releases every parked Verify and lets later ones straight through.
func (g *gateScheme) open() {
	g.hold.Store(false)
	close(g.release)
}

// gatedBurst holds the batch worker inside the flush of one lone deposit,
// queues n more deposits behind it, and returns once all n sit in the
// queue. The caller opens the gate and collects errs via wait.
func gatedBurst(t *testing.T, f *fixture, g *gateScheme, alice *Peer, n int) (wait func() []error) {
	t.Helper()
	ids := make([]coin.ID, n+1)
	for i := range ids {
		ids[i] = mintHeld(t, alice, 1)
	}
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	deposit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = alice.Deposit(ids[i], "payout:burst")
		}()
	}
	g.hold.Store(true)
	deposit(0)
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the lone deposit never reached the flush's verify stage")
	}
	for i := 1; i <= n; i++ {
		deposit(i)
	}
	q := f.broker.batcher
	for deadline := time.Now().Add(10 * time.Second); len(q.jobs) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d deposits queued behind the held flush", len(q.jobs), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return func() []error { wg.Wait(); return errs }
}

// occupancyBuckets reads the batcher's occupancy histogram from the
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

// TestDepositBatchLoneDepositNotDelayed: a lone deposit on a batching
// broker is flushed by itself as soon as the worker sees it. No timer can
// be what releases it, because the batcher has none to arm: the second half
// of the test checks that by structure — depositbatch.go calls nothing in
// package time that waits.
func TestDepositBatchLoneDepositNotDelayed(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, fixtureOpts{obs: reg, depositBatch: &DepositBatchConfig{MaxBatch: 64}})
	alice := f.addPeer("alice", nil)
	if err := alice.Deposit(mintHeld(t, alice, 3), "payout:lone"); err != nil {
		t.Fatal(err)
	}
	if got := occupancyBuckets(t, reg); got["1"] != 1 || got["+Inf"] != 1 {
		t.Fatalf("occupancy buckets = %v, want exactly one flush of one deposit", got)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "depositbatch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	waits := map[string]bool{"NewTimer": true, "After": true, "AfterFunc": true, "Sleep": true, "NewTicker": true, "Tick": true}
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && waits[sel.Sel.Name] {
			t.Errorf("depositbatch.go uses time.%s: the batcher must batch on backpressure, not on a timer", sel.Sel.Name)
		}
		return true
	})
}

// TestDepositBatchBackpressure: with the worker held inside a flush, the
// deposits that queue up behind it leave as the next flush — all of them in
// one when they fit MaxBatch, in MaxBatch-sized flushes when they do not.
func TestDepositBatchBackpressure(t *testing.T) {
	for _, tc := range []struct {
		name             string
		maxBatch, queued int
		want             map[string]int // cumulative flushes per occupancy bound
	}{
		// Flushes of 1 (the held one) and 8.
		{"one flush takes the backlog", 16, 8, map[string]int{"1": 1, "4": 1, "8": 2, "+Inf": 2}},
		// Flushes of 1, 4, 4 and 2.
		{"MaxBatch caps a flush", 4, 10, map[string]int{"1": 1, "2": 2, "4": 4, "+Inf": 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, g := obs.NewRegistry(), newGateScheme()
			f := newFixture(t, fixtureOpts{scheme: g, obs: reg, depositBatch: &DepositBatchConfig{MaxBatch: tc.maxBatch}})
			alice := f.addPeer("alice", nil)
			wait := gatedBurst(t, f, g, alice, tc.queued)
			g.open()
			for i, err := range wait() {
				if err != nil {
					t.Fatalf("deposit %d: %v", i, err)
				}
			}
			got := occupancyBuckets(t, reg)
			for le, n := range tc.want {
				if got[le] != n {
					t.Fatalf("occupancy buckets = %v, want %v", got, tc.want)
				}
			}
			if got, want := f.broker.Balance("payout:burst"), int64(tc.queued+1); got != want {
				t.Fatalf("payout balance = %d, want %d", got, want)
			}
		})
	}
}

// TestDepositBatchShutdownDrain: deposits accepted into the queue before
// the broker closes are all answered and journaled by the shutdown drain.
func TestDepositBatchShutdownDrain(t *testing.T) {
	g := newGateScheme()
	f := newFixture(t, fixtureOpts{
		scheme:       g,
		persist:      &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncNever},
		depositBatch: &DepositBatchConfig{MaxBatch: 4},
	})
	alice := f.addPeer("alice", nil)
	const queued = 10
	wait := gatedBurst(t, f, g, alice, queued)

	closed := make(chan error, 1)
	quit := f.broker.batcher.quit
	go func() { closed <- f.broker.Close() }()
	<-quit // Close reached the batcher with every job still queued
	g.open()
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("deposit %d accepted before shutdown: %v", i, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("broker close: %v", err)
	}
	recovered, err := RecoverBroker(f.brokerCfg)
	if err != nil {
		t.Fatalf("broker recovery: %v", err)
	}
	f.broker = recovered
	if got := recovered.DepositedValue(); got != queued+1 {
		t.Fatalf("recovered deposited value = %d, want %d", got, queued+1)
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

// BenchmarkDepositBatch measures broker deposit throughput under an
// fsync-per-commit journal with 64 concurrent depositors: batch=1 is
// today's sequential path (nil batching config — one verify round and one
// fsync per deposit); batch=64 flushes whole groups through one signature
// fan-out and one journal append. The ratio is the amortization win.
func BenchmarkDepositBatch(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var bc *DepositBatchConfig
			if batch > 1 {
				// No timer gathers the cohort: a flush takes whatever
				// queued during the previous flush's fsync.
				bc = &DepositBatchConfig{MaxBatch: batch}
			}
			f := newFixture(b, fixtureOpts{
				persist:      &wal.Config{Dir: b.TempDir(), Policy: wal.FsyncAlways},
				depositBatch: bc,
			})
			alice := f.addPeer("alice", nil)
			ids, err := alice.PurchaseBatch(b.N, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, id := range ids {
				if err := alice.IssueTo(alice.Addr(), id); err != nil {
					b.Fatal(err)
				}
			}

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
		})
	}
}
