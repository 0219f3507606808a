package core

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"strconv"
	"testing"

	"whopay/internal/coin"
	"whopay/internal/wal"
	"whopay/internal/wal/crashfs"
)

// The crash suite is the chaos suite's durability sibling: instead of
// dropping messages, it kills an entity's journal at exact byte boundaries
// (internal/wal/crashfs, prefix-loss model), recovers the entity from the
// bytes a dead process would have left behind, and asserts the same safety
// invariants over the recovered world:
//
//  1. Recovery always succeeds: a torn or corrupt journal tail is
//     CRC-detected and discarded, never half-applied.
//  2. No double spend: redeemed value never exceeds minted value, and the
//     recovered books stay internally consistent (credited balances equal
//     redeemed value).
//  3. At-most-one ambiguous operation: the driver is sequential and stops
//     at the first journaling failure, so after a drain the only value that
//     may go unredeemed is the single operation in flight at the crash —
//     acked from memory but cut from the journal.
//  4. Faults never punish honest parties: no owner-fraud verdicts, nobody
//     frozen, even when recovery resurrects pre-crash custody views.
//
// Crash points are swept exhaustively through the downtime-transfer window
// (the multi-record commit the paper's Section 4 protocol depends on) and
// sampled across the rest of the run; WHOPAY_CRASH_SEED seeds the sampling
// and WHOPAY_CRASH_BUDGET pins one exact byte budget for reproduction.

// crashStep is one scripted operation. atStake is the coin value that may
// legitimately go unredeemed if the crash cuts this step's journal writes.
type crashStep struct {
	name    string
	atStake int64
	run     func() error
}

// Both crash workloads repeat their script for several rounds, so replay
// meets records that supersede earlier ones under the same keys (sync
// queues, relinquishment trails, wallet entries) and the sweep spans a few
// KiB of crash points.
const (
	brokerCrashRounds = 3
	peerCrashRounds   = 4
)

// crashWorld is one broker-crash scenario: a persisted broker (journal on
// the injected filesystem), three plain peers, and a scripted workload
// touching every journaled table.
type crashWorld struct {
	t            *testing.T
	f            *fixture
	alice        *Peer
	bob          *Peer
	carol        *Peer
	idA, idB     coin.ID
	idC          coin.ID
	aliceOffline bool
	steps        []crashStep
}

func newBrokerCrashWorld(t *testing.T, dir string, fs wal.FS) *crashWorld {
	t.Helper()
	f := newFixture(t, fixtureOpts{persist: &wal.Config{Dir: dir, Policy: wal.FsyncNever, FS: fs}})
	w := &crashWorld{t: t, f: f}
	w.alice = f.addPeer("alice", nil)
	w.bob = f.addPeer("bob", nil)
	w.carol = f.addPeer("carol", nil)
	round := []crashStep{
		{"purchase-a", 3, func() error { id, err := w.alice.Purchase(3, false); w.idA = id; return err }},
		{"purchase-b", 5, func() error { id, err := w.alice.Purchase(5, false); w.idB = id; return err }},
		{"purchase-c", 7, func() error { id, err := w.bob.Purchase(7, false); w.idC = id; return err }},
		{"issue-a", 0, func() error { return w.alice.IssueTo(w.bob.Addr(), w.idA) }},
		{"issue-c-self", 0, func() error { return w.bob.IssueTo(w.bob.Addr(), w.idC) }},
		{"deposit-c", 7, func() error { return w.bob.Deposit(w.idC, w.bob.ID()) }},
		{"offline", 0, func() error { w.alice.GoOffline(); w.aliceOffline = true; return nil }},
		{"downtime-transfer", 3, func() error { return w.bob.TransferViaBroker(w.carol.Addr(), w.idA) }},
		{"online", 0, func() error { err := w.alice.GoOnline(); w.aliceOffline = err != nil; return err }},
		{"deposit-a", 3, func() error { return w.carol.Deposit(w.idA, w.carol.ID()) }},
		{"freeze", 0, func() error { w.f.broker.Freeze("mallory"); return nil }},
	}
	for r := 0; r < brokerCrashRounds; r++ {
		w.steps = append(w.steps, round...)
	}
	return w
}

// runSteps executes the workload, stopping at the first journaling failure
// (the modeled process death). It returns the index of the crashing step,
// or -1 when the whole workload completed with a healthy journal. Steps
// themselves must not fail: journal failures never block the in-memory
// protocol, so any error is a driver bug, not a crash symptom.
func (w *crashWorld) runSteps(after func(i int)) int {
	w.t.Helper()
	for i, step := range w.steps {
		if err := step.run(); err != nil {
			w.t.Fatalf("step %s: %v", step.name, err)
		}
		if after != nil {
			after(i)
		}
		if w.f.broker.PersistenceErr() != nil {
			return i
		}
	}
	return -1
}

func (w *crashWorld) peers() []*Peer { return []*Peer{w.alice, w.bob, w.carol} }

// crashSweepDeposit mirrors the chaos sweep: redeem one coin, pulling a
// missed binding from the public list on a stale report, tolerating coins
// the recovered broker no longer knows (the one ambiguous operation).
func crashSweepDeposit(p *Peer, id coin.ID) {
	err := p.Deposit(id, p.ID())
	if err == nil || errors.Is(err, ErrAlreadyDeposited) {
		return
	}
	if errors.Is(err, ErrStaleBinding) {
		_ = p.RecoverHeldBinding(id)
		_ = p.Deposit(id, p.ID())
	}
}

// drain heals the world after recovery and redeems every redeemable coin.
// Self-held coins that any peer also holds are skipped: re-issuing one
// would sign a second binding for the same sequence and frame an honest
// owner (same guard as the chaos recovery phase).
func (w *crashWorld) drain() {
	if w.aliceOffline {
		_ = w.alice.GoOnline()
		w.aliceOffline = false
	}
	heldByAnyone := make(map[coin.ID]bool)
	for _, p := range w.peers() {
		for _, id := range p.HeldCoins() {
			heldByAnyone[id] = true
		}
	}
	for _, p := range w.peers() {
		for _, id := range p.HeldCoins() {
			crashSweepDeposit(p, id)
		}
	}
	for _, p := range w.peers() {
		for _, id := range p.SelfHeldCoins() {
			if heldByAnyone[id] {
				continue
			}
			if err := p.IssueTo(p.Addr(), id); err != nil {
				continue
			}
			crashSweepDeposit(p, id)
		}
	}
}

// assertCrashInvariants checks the recovered-and-drained books. allowed is
// the at-stake value of the crashing step: the only value that may remain
// unredeemed.
func (w *crashWorld) assertCrashInvariants(label string, allowed int64) {
	t := w.t
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("[%s] "+format, append([]any{label}, args...)...)
	}
	issued := w.f.broker.IssuedValue()
	deposited := w.f.broker.DepositedValue()
	if deposited > issued {
		fail("double spend accepted: redeemed %d of %d minted", deposited, issued)
	}
	var balances int64
	for _, p := range w.peers() {
		balances += w.f.broker.Balance(p.ID())
	}
	if balances != deposited {
		fail("credited balances %d != redeemed value %d", balances, deposited)
	}
	if leftover := issued - deposited; leftover != 0 && leftover != allowed {
		fail("value not conserved: minted %d, redeemed %d, leftover %d (allowed 0 or %d)",
			issued, deposited, leftover, allowed)
	}
	for _, fc := range w.f.broker.FraudCases() {
		if fc.Kind == "owner-fraud" || fc.Punished != "" {
			fail("honest party punished: case %+v", fc)
		}
	}
	for _, p := range w.peers() {
		if w.f.broker.Frozen(p.ID()) {
			fail("honest peer %s frozen", p.ID())
		}
	}
}

// crashSeed returns the sampling seed (WHOPAY_CRASH_SEED overrides).
func crashSeed(t *testing.T) int64 {
	if env := os.Getenv("WHOPAY_CRASH_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("WHOPAY_CRASH_SEED=%q: %v", env, err)
		}
		return seed
	}
	return 1
}

// crashBudgets picks the byte budgets to sweep: every boundary of the
// exhaustive window, samples across the rest of [lo, hi], and hi+1 as the
// crash-free control. WHOPAY_CRASH_BUDGET pins a single budget.
func crashBudgets(t *testing.T, lo, hi, winLo, winHi, seed int64) []int64 {
	if env := os.Getenv("WHOPAY_CRASH_BUDGET"); env != "" {
		b, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("WHOPAY_CRASH_BUDGET=%q: %v", env, err)
		}
		return []int64{b}
	}
	rng := mrand.New(mrand.NewSource(seed))
	picked := make(map[int64]bool)
	add := func(b int64) {
		if b >= lo && b <= hi+1 {
			picked[b] = true
		}
	}
	// Small journals get the full treatment: every byte boundary is a
	// crash point.
	const exhaustiveCap = 8 << 10
	if hi-lo <= exhaustiveCap {
		for b := lo; b <= hi+1; b++ {
			add(b)
		}
	} else {
		// Exhaustive through the window (capped), the multi-record commit
		// most likely to tear; samples across the rest.
		const winCap = 1024
		if winHi-winLo <= winCap {
			for b := winLo; b <= winHi; b++ {
				add(b)
			}
		} else {
			for i := 0; i < winCap; i++ {
				add(winLo + rng.Int63n(winHi-winLo+1))
			}
		}
		const spread = 128
		for i := int64(0); i <= spread; i++ {
			add(lo + i*(hi-lo)/spread)
		}
		for i := 0; i < spread; i++ {
			add(lo + rng.Int63n(hi-lo+1))
		}
		add(lo)
		add(hi + 1) // control: the journal survives untouched
	}
	out := make([]int64, 0, len(picked))
	for b := range picked {
		out = append(out, b)
	}
	return out
}

// TestBrokerCrashSweep is the headline crash run: a probe sizes the
// journal and locates the downtime-transfer write window, then each chosen
// byte budget gets a fresh world, a crash, a recovery from the on-disk
// prefix, and the full invariant check.
func TestBrokerCrashSweep(t *testing.T) {
	// The sampling seed is derived per sweep — the env base hashed with
	// the test name — so the broker and peer sweeps draw independent
	// budget sets from one WHOPAY_CRASH_SEED, and re-running this test
	// alone samples exactly what it sampled inside the full run. A single
	// budget reproduces alone via WHOPAY_CRASH_BUDGET, which bypasses
	// sampling entirely.
	seed := deriveSeed(crashSeed(t), "TestBrokerCrashSweep")

	// Probe run: count bytes, note each step's write offsets.
	probeFS := crashfs.Count(wal.OS())
	probe := newBrokerCrashWorld(t, t.TempDir(), probeFS)
	setup := probeFS.Written()
	offsets := make([]int64, len(probe.steps))
	if crashed := probe.runSteps(func(i int) { offsets[i] = probeFS.Written() }); crashed != -1 {
		t.Fatalf("probe run crashed at step %d", crashed)
	}
	total := probeFS.Written()
	winLo, winHi := setup, total
	for i, step := range probe.steps {
		if step.name == "downtime-transfer" {
			if i > 0 {
				winLo = offsets[i-1]
			}
			winHi = offsets[i]
		}
	}

	budgets := crashBudgets(t, setup, total, winLo, winHi, seed)
	t.Logf("crash sweep: journal setup=%dB total=%dB, downtime window [%d,%d], %d crash points (seed %d)",
		setup, total, winLo, winHi, len(budgets), seed)

	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			w := newBrokerCrashWorld(t, dir, crashfs.Limit(wal.OS(), budget))
			crashedAt := w.runSteps(nil)
			var allowed int64
			if crashedAt >= 0 {
				allowed = w.steps[crashedAt].atStake
			}
			// The process is dead; recover from the real filesystem.
			w.f.brokerCfg.Persistence = &wal.Config{Dir: dir, Policy: wal.FsyncNever}
			w.f.restartBroker()
			if !w.f.broker.Recovered() {
				t.Fatal("recovered broker reports no durable state")
			}
			w.drain()
			label := fmt.Sprintf("crash budget %d, step %d, sampling seed %d — reproduce alone with WHOPAY_CRASH_BUDGET=%d",
				budget, crashedAt, seed, budget)
			w.assertCrashInvariants(label, allowed)
		})
	}
}

// TestBrokerCorruptTailRecovers flips bytes in the newest journal segment
// of a cleanly finished run: recovery must CRC-detect the damage, seal the
// log there, and come back with internally consistent books — never a
// half-applied record.
func TestBrokerCorruptTailRecovers(t *testing.T) {
	for _, back := range []int64{1, 7, 64} {
		back := back
		t.Run(fmt.Sprintf("back=%d", back), func(t *testing.T) {
			dir := t.TempDir()
			w := newBrokerCrashWorld(t, dir, nil)
			if crashed := w.runSteps(nil); crashed != -1 {
				t.Fatalf("workload crashed at step %d without injection", crashed)
			}
			if err := w.f.broker.Close(); err != nil {
				t.Fatal(err)
			}
			files, err := wal.Files(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatal("no journal files after a persisted run")
			}
			path := files[len(files)-1]
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) <= back {
				t.Skipf("segment smaller than corruption offset %d", back)
			}
			raw[int64(len(raw))-back] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			nb, err := RecoverBroker(w.f.brokerCfg)
			if err != nil {
				t.Fatalf("recovery from corrupt tail: %v", err)
			}
			w.f.broker = nb
			// The corruption may have discarded any suffix of the run, so
			// conservation is not assertable — internal consistency and
			// no-punishment are.
			issued := nb.IssuedValue()
			deposited := nb.DepositedValue()
			if deposited > issued {
				t.Errorf("double spend after corrupt-tail recovery: %d of %d", deposited, issued)
			}
			var balances int64
			for _, p := range w.peers() {
				balances += nb.Balance(p.ID())
			}
			if balances != deposited {
				t.Errorf("balances %d != redeemed %d after corrupt-tail recovery", balances, deposited)
			}
			for _, fc := range nb.FraudCases() {
				if fc.Kind == "owner-fraud" || fc.Punished != "" {
					t.Errorf("honest party punished after corruption: %+v", fc)
				}
			}
		})
	}
}

// TestPeerCrashSweep points the injector at a peer's wallet journal
// instead: the broker (plain, never crashing) is the ground truth that the
// recovered wallet can neither double-spend nor get punished, and at most
// the one ambiguous operation's value evaporates.
func TestPeerCrashSweep(t *testing.T) {
	// Derived per sweep, like TestBrokerCrashSweep: one env base, an
	// independent budget sample per test, single budgets pinned via
	// WHOPAY_CRASH_BUDGET.
	seed := deriveSeed(crashSeed(t), "TestPeerCrashSweep")

	type peerWorld struct {
		f          *fixture
		alice, bob *Peer
		carol      *Peer
		idA, idC   coin.ID
		steps      []crashStep
	}
	build := func(t *testing.T, dir string, fs wal.FS) *peerWorld {
		f := newFixture(t, fixtureOpts{})
		cfg := f.peerConfig("alice", nil)
		cfg.Persistence = &wal.Config{Dir: dir, Policy: wal.FsyncNever, FS: fs}
		w := &peerWorld{f: f}
		w.alice = f.addPeerWith(cfg)
		w.bob = f.addPeer("bob", nil)
		w.carol = f.addPeer("carol", nil)
		round := []crashStep{
			{"purchase-a", 3, func() error { id, err := w.alice.Purchase(3, false); w.idA = id; return err }},
			{"purchase-b", 5, func() error { _, err := w.alice.Purchase(5, false); return err }},
			{"issue-a", 3, func() error { return w.alice.IssueTo(w.bob.Addr(), w.idA) }},
			{"transfer-a", 3, func() error { return w.bob.TransferTo(w.carol.Addr(), w.idA) }},
			{"purchase-c", 0, func() error { id, err := w.bob.Purchase(7, false); w.idC = id; return err }},
			{"issue-c", 7, func() error { return w.bob.IssueTo(w.alice.Addr(), w.idC) }},
			{"deposit-c", 7, func() error { return w.alice.Deposit(w.idC, w.alice.ID()) }},
		}
		for r := 0; r < peerCrashRounds; r++ {
			w.steps = append(w.steps, round...)
		}
		return w
	}
	peersOf := func(w *peerWorld) []*Peer { return []*Peer{w.alice, w.bob, w.carol} }
	run := func(t *testing.T, w *peerWorld, after func(int)) int {
		t.Helper()
		for i, step := range w.steps {
			if err := step.run(); err != nil {
				t.Fatalf("step %s: %v", step.name, err)
			}
			if after != nil {
				after(i)
			}
			if w.alice.PersistenceErr() != nil {
				return i
			}
		}
		return -1
	}

	probeFS := crashfs.Count(wal.OS())
	probe := build(t, t.TempDir(), probeFS)
	setup := probeFS.Written()
	if crashed := run(t, probe, nil); crashed != -1 {
		t.Fatalf("probe run crashed at step %d", crashed)
	}
	total := probeFS.Written()
	budgets := crashBudgets(t, setup, total, setup, total, seed)
	t.Logf("peer crash sweep: journal setup=%dB total=%dB, %d crash points (seed %d)",
		setup, total, len(budgets), seed)

	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			w := build(t, dir, crashfs.Limit(wal.OS(), budget))
			crashedAt := run(t, w, nil)
			var allowed int64
			if crashedAt >= 0 {
				allowed = w.steps[crashedAt].atStake
			}
			cfg := w.f.peerConfig("alice", nil)
			cfg.ID = w.alice.ID()
			cfg.Addr = w.alice.Addr()
			cfg.Persistence = &wal.Config{Dir: dir, Policy: wal.FsyncNever}
			w.alice = w.f.restartPeer(w.alice, cfg)
			if !w.alice.Recovered() {
				t.Fatal("recovered peer reports no durable state")
			}

			// Drain with the anti-framing guard: the recovered wallet may
			// believe it still owns a coin someone else provably holds.
			heldByAnyone := make(map[coin.ID]bool)
			for _, p := range peersOf(w) {
				for _, id := range p.HeldCoins() {
					heldByAnyone[id] = true
				}
			}
			for _, p := range peersOf(w) {
				for _, id := range p.HeldCoins() {
					crashSweepDeposit(p, id)
				}
			}
			for _, p := range peersOf(w) {
				for _, id := range p.SelfHeldCoins() {
					if heldByAnyone[id] {
						continue
					}
					if err := p.IssueTo(p.Addr(), id); err != nil {
						continue
					}
					crashSweepDeposit(p, id)
				}
			}

			label := fmt.Sprintf("peer crash budget %d, step %d, sampling seed %d — reproduce alone with WHOPAY_CRASH_BUDGET=%d",
				budget, crashedAt, seed, budget)
			issued := w.f.broker.IssuedValue()
			deposited := w.f.broker.DepositedValue()
			if deposited > issued {
				t.Errorf("[%s] double spend accepted: redeemed %d of %d minted", label, deposited, issued)
			}
			var balances int64
			for _, p := range peersOf(w) {
				balances += w.f.broker.Balance(p.ID())
			}
			if balances != deposited {
				t.Errorf("[%s] balances %d != redeemed %d", label, balances, deposited)
			}
			if leftover := issued - deposited; leftover != 0 && leftover != allowed {
				t.Errorf("[%s] leftover %d (allowed 0 or %d)", label, leftover, allowed)
			}
			for _, fc := range w.f.broker.FraudCases() {
				if fc.Kind == "owner-fraud" || fc.Punished != "" {
					t.Errorf("[%s] honest party punished: %+v", label, fc)
				}
			}
			for _, p := range peersOf(w) {
				if w.f.broker.Frozen(p.ID()) {
					t.Errorf("[%s] honest peer %s frozen", label, p.ID())
				}
			}
		})
	}
}

// TestCrashDHTRestartRejoin is the tentpole's third scenario at the system
// level: every DHT node crash-restarts mid-economy, and the public binding
// list — publishing, payee checks, watch notifications — keeps working on
// the recovered nodes, through to full redemption.
func TestCrashDHTRestartRejoin(t *testing.T) {
	f := newFixture(t, fixtureOpts{
		detection:  true,
		dhtPersist: &wal.Config{Dir: t.TempDir(), Policy: wal.FsyncNever},
	})
	alice := f.addPeer("alice", nil)
	bob := f.addPeer("bob", nil)
	carol := f.addPeer("carol", nil)

	idA, err := alice.Purchase(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), idA); err != nil {
		t.Fatal(err)
	}

	for i := range f.dhtCl.Nodes() {
		if err := f.dhtCl.Restart(i); err != nil {
			t.Fatalf("restarting DHT node %d: %v", i, err)
		}
	}
	for i, n := range f.dhtCl.Nodes() {
		if err := n.PersistenceErr(); err != nil {
			t.Fatalf("DHT node %d journaling: %v", i, err)
		}
	}

	// The published binding survived the restarts: carol's payee-side
	// public-binding check runs against the recovered nodes.
	if err := bob.TransferTo(carol.Addr(), idA); err != nil {
		t.Fatalf("transfer across restarted DHT: %v", err)
	}
	// New publications land on the recovered nodes too.
	idB, err := alice.Purchase(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), idB); err != nil {
		t.Fatalf("issue across restarted DHT: %v", err)
	}
	if err := carol.Deposit(idA, carol.ID()); err != nil {
		t.Fatal(err)
	}
	if err := bob.Deposit(idB, bob.ID()); err != nil {
		t.Fatal(err)
	}
	if got, want := f.broker.DepositedValue(), f.broker.IssuedValue(); got != want {
		t.Errorf("after drain: deposited %d != issued %d", got, want)
	}
}
