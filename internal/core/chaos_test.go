package core

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/bus/faultbus"
	"whopay/internal/coin"
	"whopay/internal/payword"
)

// The chaos suite runs full coin lifecycles — purchase, issue, transfer,
// renewal, downtime fallback, deposit — under a randomized fault schedule
// (message drops on either side, duplicate delivery, added latency, flapping
// and offline endpoints) and asserts the protocol's safety invariants:
//
//  1. Value conservation: every minted coin is redeemed exactly once, except
//     coins whose mint confirmation was lost before the buyer learned the
//     coin existed (accounted as "ghost mints" — the buyer holds no key
//     material, so the value is provably unredeemable, not double-spent).
//  2. No accepted double spend: redeemed value never exceeds minted value,
//     and duplicate deliveries/deposits surface as rejected double-deposit
//     cases, never as credit.
//  3. Faults never punish honest parties: no "owner-fraud" verdicts, nobody
//     frozen. (Lost replies can make two parties hold the same coin; the
//     broker's first-deposit-wins plus escrowed evidence absorbs that.)
//  4. No coin is stuck: after the network heals, a deterministic recovery
//     sweep (deposit everything, pull missed bindings from the public list,
//     issue leftover self-held coins) redeems all non-ghost value.
//
// Every run is reproducible from its seed: the driver is sequential, peers
// draw protocol randomness from per-peer seeded sources (fixture), and the
// fault schedule comes from the faultbus's seeded generator. A failing run
// prints its seed; re-run that one scenario alone with
// WHOPAY_CHAOS_SEED=<seed> go test -run '<Test>/env'. Setting the env seed
// also fans the sweep's other subtests out to derived seeds (env seed
// hashed with the subtest name), so one env value explores fresh,
// individually reproducible schedules.

// chaosFaults is the fault profile every link suffers during the chaos
// phase. Rates are high enough that a ~70-round run injects dozens of
// faults, low enough that most lifecycles complete and exercise the
// downstream protocol too.
var chaosFaults = faultbus.Faults{
	DropRequest: 0.08,
	DropReply:   0.08,
	Duplicate:   0.06,
	LatencyMin:  20 * time.Microsecond,
	LatencyMax:  120 * time.Microsecond,
}

const (
	chaosPeers  = 4
	chaosRounds = 70
)

// chaosSummary aggregates the observable outcome of one run. Two runs with
// the same seed must produce identical summaries (the reproducibility test
// compares them); per-link stats and coin IDs are process-dependent (Null
// scheme keys are process-globally sequenced) and deliberately excluded.
type chaosSummary struct {
	Issued         int64
	Deposited      int64
	GhostMinted    int64
	Balances       int64
	DoubleDeposits int
	Faults         faultbus.LinkStats
	Retries        int64
}

type chaosWorld struct {
	t     *testing.T
	seed  int64
	f     *fixture
	fb    *faultbus.Network
	rng   *mrand.Rand
	peers []*Peer

	offline map[int]bool
	flapped map[int]bool
	// quarantined coins had a transfer/issue fail ambiguously: the payee
	// may hold a delivery whose confirmation was lost. Touching such a
	// coin again toward a DIFFERENT payee could make an honest owner sign
	// two bindings for the same sequence number — indistinguishable from
	// owner fraud. The driver therefore retries only toward the same
	// payee and otherwise parks the coin until the recovery sweep.
	quarantined map[coin.ID]bool
	// owned tracks each peer's purchases in order, because OwnedCoins()
	// iterates a map and coin IDs are not comparable across runs — the
	// sweep must walk coins in a seed-stable order.
	owned       [][]coin.ID
	ghostMinted int64

	// channels tracks the micropayment channels the channel-chaos schedule
	// opened; channelPaysOK counts payments that landed, so a vacuous
	// schedule is detectable.
	channels      []*chaosChannel
	channelPaysOK int
}

// chaosChannel is one tracked micropayment channel in the channel-chaos
// schedule. dead marks windows the protocol closed underneath us (TTL,
// exhaustion, or a vendor-side close we learned about through an error).
type chaosChannel struct {
	payer, vendor int
	root          payword.Word
	dead          bool
}

func newChaosWorld(t *testing.T, seed int64, retry *bus.RetryPolicy, batch *DepositBatchConfig) *chaosWorld {
	t.Helper()
	f := newFixture(t, fixtureOpts{detection: true, retry: retry, depositBatch: batch})
	w := &chaosWorld{
		t:           t,
		seed:        seed,
		f:           f,
		fb:          faultbus.New(f.net, seed),
		rng:         mrand.New(mrand.NewSource(seed)),
		offline:     make(map[int]bool),
		flapped:     make(map[int]bool),
		quarantined: make(map[coin.ID]bool),
		owned:       make([][]coin.ID, chaosPeers),
	}
	// Peers listen through the fault injector; the broker and DHT stay on
	// the reliable inner bus (they are the paper's managed infrastructure
	// — faults still hit every peer→broker and peer→DHT call, because
	// injection is caller-side).
	f.netAny = w.fb
	for i := 0; i < chaosPeers; i++ {
		w.peers = append(w.peers, f.addPeer(fmt.Sprintf("chaos-%d-%d", seed, i), nil))
	}
	return w
}

// purchase buys one coin for peer i, attributing lost-confirmation mints to
// the ghost account. The driver is the broker's only client, so the
// issued-value delta around a failed call is exactly what that call minted.
func (w *chaosWorld) purchase(i int) {
	before := w.f.broker.IssuedValue()
	id, err := w.peers[i].Purchase(1, false)
	if err != nil {
		w.ghostMinted += w.f.broker.IssuedValue() - before
		return
	}
	w.owned[i] = append(w.owned[i], id)
}

// pickHeld returns peer i's oldest non-quarantined held coin.
func (w *chaosWorld) pickHeld(i int) (coin.ID, bool) {
	for _, id := range w.peers[i].HeldCoins() {
		if !w.quarantined[id] {
			return id, true
		}
	}
	return "", false
}

// pickSelfOwned returns peer i's first still-self-held tracked purchase.
func (w *chaosWorld) pickSelfOwned(i int) (coin.ID, bool) {
	self := make(map[coin.ID]bool)
	for _, id := range w.peers[i].SelfHeldCoins() {
		self[id] = true
	}
	for _, id := range w.owned[i] {
		if self[id] && !w.quarantined[id] {
			return id, true
		}
	}
	return "", false
}

// onlineIdx lists indices of peers currently online, ascending.
func (w *chaosWorld) onlineIdx() []int {
	var out []int
	for i := range w.peers {
		if !w.offline[i] {
			out = append(out, i)
		}
	}
	return out
}

// transferOnce mirrors what the paper's payers do: try the owner, fall back
// to the broker's downtime path on a transport failure.
func transferOnce(p *Peer, payee bus.Address, id coin.ID) error {
	err := p.TransferTo(payee, id)
	if err != nil && isUnreachable(err) {
		err = p.TransferViaBroker(payee, id)
	}
	return err
}

// transfer moves one held coin from peer i to a fixed payee, retrying a few
// times toward the SAME payee (re-delivery overwrites any ghost state there)
// and quarantining the coin if the outcome stays ambiguous.
func (w *chaosWorld) transfer(i, j int) {
	id, ok := w.pickHeld(i)
	if !ok {
		w.purchase(i)
		return
	}
	payee := w.peers[j].Addr()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = transferOnce(w.peers[i], payee, id); err == nil {
			return
		}
	}
	w.quarantined[id] = true
}

// issue spends one of peer i's self-held coins toward a fixed payee, under
// the same same-payee retry discipline as transfer.
func (w *chaosWorld) issue(i, j int) {
	id, ok := w.pickSelfOwned(i)
	if !ok {
		w.purchase(i)
		return
	}
	payee := w.peers[j].Addr()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = w.peers[i].IssueTo(payee, id); err == nil {
			return
		}
	}
	w.quarantined[id] = true
}

// chaosPhase runs the randomized schedule. All randomness comes from w.rng
// and the faultbus's seeded generator, and the driver is single-threaded, so
// the whole phase replays exactly from the seed.
func (w *chaosWorld) chaosPhase() {
	w.fb.SetDefaults(chaosFaults)
	for round := 0; round < chaosRounds; round++ {
		online := w.onlineIdx()
		r := w.rng.Intn(100)
		switch {
		case r < 40: // transfer between two online peers
			if len(online) < 2 {
				break
			}
			i := online[w.rng.Intn(len(online))]
			j := online[w.rng.Intn(len(online))]
			if i == j {
				break
			}
			w.transfer(i, j)
		case r < 55: // renewal, owner-or-broker
			i := online[w.rng.Intn(len(online))]
			if id, ok := w.pickHeld(i); ok {
				_, _ = w.peers[i].Renew(id)
			}
		case r < 65: // issue a self-held coin
			if len(online) < 2 {
				break
			}
			i := online[w.rng.Intn(len(online))]
			j := online[w.rng.Intn(len(online))]
			if i == j {
				break
			}
			w.issue(i, j)
		case r < 75: // purchase
			i := online[w.rng.Intn(len(online))]
			w.purchase(i)
		case r < 83: // deposit mid-chaos
			i := online[w.rng.Intn(len(online))]
			if id, ok := w.pickHeld(i); ok {
				_ = w.peers[i].Deposit(id, w.peers[i].ID())
			}
		case r < 92: // flap toggle: the endpoint goes intermittent
			k := w.rng.Intn(len(w.peers))
			if w.flapped[k] {
				w.fb.SetFlap(w.peers[k].Addr(), 0)
				delete(w.flapped, k)
			} else {
				w.fb.SetFlap(w.peers[k].Addr(), 0.4)
				w.flapped[k] = true
			}
		default: // downtime proper: a peer leaves or rejoins
			k := w.rng.Intn(len(w.peers))
			if w.offline[k] {
				_ = w.peers[k].GoOnline() // sync may fail under faults
				delete(w.offline, k)
			} else if len(online) > 2 {
				w.peers[k].GoOffline()
				w.offline[k] = true
			}
		}
	}
}

// heldAnywhere snapshots every coin currently in any peer's held wallet.
func (w *chaosWorld) heldAnywhere() map[coin.ID]bool {
	m := make(map[coin.ID]bool)
	for _, p := range w.peers {
		for _, id := range p.HeldCoins() {
			m[id] = true
		}
	}
	return m
}

// channelOp runs one payer-side channel operation under settlement-coin
// accounting. Channel settlements purchase WhoPay coins inside the peer
// layer, so a failed op can leave a freshly minted coin in one of three
// places: self-held by the payer (IssueTo failed cleanly — track it so the
// sweep redeems it), held by the vendor (the close reply was lost — the
// vendor's own sweep redeems it), or in no wallet at all (the mint
// confirmation was lost — a ghost, provably unredeemable).
func (w *chaosWorld) channelOp(payer int, op func() error) {
	before := w.f.broker.IssuedValue()
	selfBefore := make(map[coin.ID]bool)
	for _, id := range w.peers[payer].SelfHeldCoins() {
		selfBefore[id] = true
	}
	heldBefore := w.heldAnywhere()
	err := op()
	delta := w.f.broker.IssuedValue() - before
	if err == nil || delta <= 0 {
		return
	}
	var newSelf []coin.ID
	for _, id := range w.peers[payer].SelfHeldCoins() {
		if !selfBefore[id] {
			newSelf = append(newSelf, id)
		}
	}
	if len(newSelf) > 0 {
		// Sorted before tracking: wallet iteration order is a map's, and
		// the sweep must walk coins in a seed-stable order.
		sort.Slice(newSelf, func(a, b int) bool { return newSelf[a] < newSelf[b] })
		w.owned[payer] = append(w.owned[payer], newSelf...)
		return
	}
	for id := range w.heldAnywhere() {
		if !heldBefore[id] {
			return // delivered to the vendor; its held-coin sweep redeems it
		}
	}
	w.ghostMinted += delta
}

// openChaosChannel opens a tracked channel from peer i to peer j. Opening
// mints nothing, so a failed open is just a lost window — no accounting.
func (w *chaosWorld) openChaosChannel(i, j int) {
	root, err := w.peers[i].OpenChannel(w.peers[j].Addr(), ChannelOptions{
		Capacity:        12,
		SettleThreshold: 5,
	})
	if err != nil {
		return
	}
	w.channels = append(w.channels, &chaosChannel{payer: i, vendor: j, root: root})
}

// channelPayOp streams one payment down a channel. A window the protocol
// closed underneath us (TTL, exhaustion, vendor-side close) is marked dead —
// the internal final settlement already ran, and its coin is accounted like
// any other settlement.
func (w *chaosWorld) channelPayOp(c *chaosChannel) {
	w.channelOp(c.payer, func() error {
		_, err := w.peers[c.payer].ChannelPay(c.root)
		if err == nil {
			w.channelPaysOK++
			return nil
		}
		if errors.Is(err, ErrChannelClosed) || errors.Is(err, ErrNoChannel) {
			c.dead = true
			return nil
		}
		return err
	})
}

// channelSettleOp settles a channel's balance mid-chaos without closing it.
func (w *chaosWorld) channelSettleOp(c *chaosChannel) {
	w.channelOp(c.payer, func() error {
		_, err := w.peers[c.payer].SettleChannel(c.root)
		if errors.Is(err, ErrChannelClosed) || errors.Is(err, ErrNoChannel) {
			c.dead = true
			return nil
		}
		return err
	})
}

// liveChannels lists tracked channels whose payer is currently online.
func (w *chaosWorld) liveChannels() []*chaosChannel {
	var out []*chaosChannel
	for _, c := range w.channels {
		if !c.dead && !w.offline[c.payer] {
			out = append(out, c)
		}
	}
	return out
}

// chaosChannelPhase is the channel variant of the chaos schedule: payword
// streams and window settlements dominate, with plain coin traffic, flap
// toggles, and downtime mixed in so channels and the base protocol stress
// each other.
func (w *chaosWorld) chaosChannelPhase() {
	w.fb.SetDefaults(chaosFaults)
	for round := 0; round < chaosRounds; round++ {
		online := w.onlineIdx()
		if len(online) == 0 {
			continue
		}
		r := w.rng.Intn(100)
		switch {
		case r < 35: // channel pay
			cs := w.liveChannels()
			if len(cs) == 0 {
				break
			}
			w.channelPayOp(cs[w.rng.Intn(len(cs))])
		case r < 45: // mid-window settle
			cs := w.liveChannels()
			if len(cs) == 0 {
				break
			}
			w.channelSettleOp(cs[w.rng.Intn(len(cs))])
		case r < 55: // open a fresh window
			if len(online) < 2 {
				break
			}
			i := online[w.rng.Intn(len(online))]
			j := online[w.rng.Intn(len(online))]
			if i == j {
				break
			}
			w.openChaosChannel(i, j)
		case r < 65: // coin transfer alongside the channels
			if len(online) < 2 {
				break
			}
			i := online[w.rng.Intn(len(online))]
			j := online[w.rng.Intn(len(online))]
			if i == j {
				break
			}
			w.transfer(i, j)
		case r < 73: // purchase
			w.purchase(online[w.rng.Intn(len(online))])
		case r < 81: // deposit mid-chaos (through the batching stage)
			i := online[w.rng.Intn(len(online))]
			if id, ok := w.pickHeld(i); ok {
				_ = w.peers[i].Deposit(id, w.peers[i].ID())
			}
		case r < 91: // flap toggle
			k := w.rng.Intn(len(w.peers))
			if w.flapped[k] {
				w.fb.SetFlap(w.peers[k].Addr(), 0)
				delete(w.flapped, k)
			} else {
				w.fb.SetFlap(w.peers[k].Addr(), 0.4)
				w.flapped[k] = true
			}
		default: // downtime toggle
			k := w.rng.Intn(len(w.peers))
			if w.offline[k] {
				_ = w.peers[k].GoOnline()
				delete(w.offline, k)
			} else if len(online) > 2 {
				w.peers[k].GoOffline()
				w.offline[k] = true
			}
		}
	}
}

// sweepDeposit redeems one held coin after healing, pulling a missed
// binding from the public binding list when the broker reports ours stale
// (a downtime renewal whose confirmation and notification were both lost).
func (w *chaosWorld) sweepDeposit(p *Peer, id coin.ID) {
	err := p.Deposit(id, p.ID())
	if err == nil || errors.Is(err, ErrAlreadyDeposited) {
		return
	}
	if errors.Is(err, ErrStaleBinding) {
		_ = p.RecoverHeldBinding(id)
		_ = p.Deposit(id, p.ID())
	}
	// Remaining failures mean another party holds the authoritative
	// binding for this coin; their deposit settles it. The conservation
	// assertion is the arbiter.
}

// recoveryPhase heals the network and drains every recoverable coin back to
// the broker, in a seed-stable order.
func (w *chaosWorld) recoveryPhase() {
	w.fb.Heal()
	for i := range w.peers {
		if w.offline[i] {
			_ = w.peers[i].GoOnline()
			delete(w.offline, i)
		}
	}

	// Close every channel before the wallet sweep: a final settlement
	// issues its coin into the vendor's held wallet, and the held-coin
	// snapshot below must see it. Windows the protocol already closed
	// answer ErrNoChannel and are skipped.
	for _, c := range w.channels {
		c := c
		w.channelOp(c.payer, func() error {
			_, err := w.peers[c.payer].CloseChannel(c.root)
			if errors.Is(err, ErrNoChannel) || errors.Is(err, ErrChannelClosed) {
				return nil
			}
			return err
		})
	}

	// Snapshot who holds what BEFORE depositing: a self-held coin that
	// some peer also holds was ghost-delivered (the owner's confirmation
	// was lost); re-issuing it would sign a second binding and frame the
	// owner, so the holder's copy is the one that gets redeemed.
	heldByAnyone := make(map[coin.ID]bool)
	for _, p := range w.peers {
		for _, id := range p.HeldCoins() {
			heldByAnyone[id] = true
		}
	}

	for _, p := range w.peers {
		for _, id := range p.HeldCoins() {
			w.sweepDeposit(p, id)
		}
	}

	// Self-held leftovers: issue to self, then redeem. Only coins no one
	// else ever received — see the snapshot above.
	for i, p := range w.peers {
		self := make(map[coin.ID]bool)
		for _, id := range p.SelfHeldCoins() {
			self[id] = true
		}
		for _, id := range w.owned[i] {
			if !self[id] || heldByAnyone[id] {
				continue
			}
			if err := p.IssueTo(p.Addr(), id); err != nil {
				continue
			}
			w.sweepDeposit(p, id)
		}
	}
}

func (w *chaosWorld) summary() chaosSummary {
	sum := chaosSummary{
		Issued:      w.f.broker.IssuedValue(),
		Deposited:   w.f.broker.DepositedValue(),
		GhostMinted: w.ghostMinted,
		Faults:      w.fb.TotalStats(),
	}
	for _, fc := range w.f.broker.FraudCases() {
		if fc.Kind == "double-deposit" {
			sum.DoubleDeposits++
		}
	}
	for _, p := range w.peers {
		sum.Balances += w.f.broker.Balance(p.ID())
		sum.Retries += p.Retries()
	}
	return sum
}

// runChaos executes one full seeded run and returns its summary.
func runChaos(t *testing.T, seed int64, retry *bus.RetryPolicy) chaosSummary {
	t.Helper()
	w := newChaosWorld(t, seed, retry, nil)

	// Quiescent warm-up: seed the economy so transfers dominate early
	// rounds. No faults are configured yet, so these cannot ghost.
	for i := range w.peers {
		w.purchase(i)
		w.purchase(i)
		w.issue(i, (i+1)%chaosPeers)
	}

	w.chaosPhase()
	w.recoveryPhase()

	sum := w.summary()
	assertChaosInvariants(t, seed, w, sum)
	return sum
}

func assertChaosInvariants(t *testing.T, seed int64, w *chaosWorld, sum chaosSummary) {
	t.Helper()
	// The repro recipe is subtest-exact: the printed seed, run as the
	// "env" case of this same top-level test, replays this one scenario
	// without the rest of the sweep (derived seeds included — they were
	// hashed from the env seed once and are ordinary literal seeds here).
	topTest, _, _ := strings.Cut(t.Name(), "/")
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("[chaos seed %d] "+format+
			" — reproduce alone with: WHOPAY_CHAOS_SEED=%d go test -run '%s/env' ./internal/core/",
			append(append([]any{seed}, args...), seed, topTest)...)
	}
	if sum.Deposited != sum.Issued-sum.GhostMinted {
		fail("value not conserved: minted %d, ghost-minted %d, redeemed %d",
			sum.Issued, sum.GhostMinted, sum.Deposited)
	}
	if sum.Deposited > sum.Issued {
		fail("double spend accepted: redeemed %d of %d minted", sum.Deposited, sum.Issued)
	}
	if sum.Balances != sum.Deposited {
		fail("credited balances %d != redeemed value %d", sum.Balances, sum.Deposited)
	}
	for _, fc := range w.f.broker.FraudCases() {
		if fc.Kind == "owner-fraud" || fc.Punished != "" {
			fail("honest party punished: case %+v", fc)
		}
	}
	for _, p := range w.peers {
		if w.f.broker.Frozen(p.ID()) {
			fail("honest peer %s frozen", p.ID())
		}
	}
	if sum.Faults.Injected() == 0 {
		fail("no faults injected — the schedule was vacuous")
	}
	t.Logf("chaos seed %d: minted %d (ghost %d), redeemed %d, faults %+v, double-deposit cases %d, retries %d",
		seed, sum.Issued, sum.GhostMinted, sum.Deposited, sum.Faults, sum.DoubleDeposits, sum.Retries)
}

// chaosCase is one subtest of a chaos sweep: a name and the seed it runs.
type chaosCase struct {
	name string
	seed int64
}

// chaosCases names the sweep's subtest matrix. Without WHOPAY_CHAOS_SEED
// the fixed base seeds run, one subtest each — the suite's green set. With
// it, the "env" case runs the literal environment seed (the reproduction
// path every failure label points at), and each base slot instead derives
// its seed by hashing the env seed with the subtest's full name — one env
// value fans out into fresh schedules, and any failing one is reproducible
// alone: its printed seed, run as the "env" case, replays it exactly.
func chaosCases(t *testing.T, testName string, base []int64) []chaosCase {
	env := os.Getenv("WHOPAY_CHAOS_SEED")
	if env == "" {
		cases := make([]chaosCase, 0, len(base))
		for _, s := range base {
			cases = append(cases, chaosCase{fmt.Sprintf("seed=%d", s), s})
		}
		return cases
	}
	envSeed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("WHOPAY_CHAOS_SEED=%q: %v", env, err)
	}
	cases := []chaosCase{{"env", envSeed}}
	for i := range base {
		name := fmt.Sprintf("derived-%d", i)
		cases = append(cases, chaosCase{name, deriveSeed(envSeed, testName+"/"+name)})
	}
	return cases
}

// TestChaosLifecycles is the headline chaos run: many seeds, no retry layer
// (every fault surfaces raw), full invariant check per seed.
func TestChaosLifecycles(t *testing.T) {
	for _, c := range chaosCases(t, "TestChaosLifecycles", []int64{1, 2, 3, 4, 5, 6}) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runChaos(t, c.seed, nil)
		})
	}
}

// TestChaosLifecyclesWithRetries runs the same schedule shape with the
// retry layer enabled: transient faults get absorbed by backoff (the sleep
// is stubbed out — scheduling, not wall-clock, is what's under test) and
// the invariants must hold identically. Protocol rejections must never be
// replayed, or the double-spend counters would light up.
func TestChaosLifecyclesWithRetries(t *testing.T) {
	retry := &bus.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	var retries int64
	for _, c := range chaosCases(t, "TestChaosLifecyclesWithRetries", []int64{101, 102, 103}) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			retries += runChaos(t, c.seed, retry).Retries
		})
	}
	if retries == 0 {
		t.Error("retry layer absorbed no faults across all seeds — wiring suspect")
	}
}

// runChaosChannels executes one seeded channel-chaos run: micropayment
// channels on the peers AND deposit batching on the broker, under the same
// drop/duplicate/flap schedule as the base suite. The invariants are
// identical — conservation, no accepted double spend, no honest party
// punished — because channels must not change what the ledger can do, only
// how often it is touched.
func runChaosChannels(t *testing.T, seed int64) chaosSummary {
	t.Helper()
	w := newChaosWorld(t, seed, nil, &DepositBatchConfig{MaxBatch: 8})

	// Quiescent warm-up: seed coins and one channel per peer before any
	// faults are configured, so the early rounds have windows to stream on.
	for i := range w.peers {
		w.purchase(i)
		w.purchase(i)
		w.openChaosChannel(i, (i+1)%chaosPeers)
	}

	w.chaosChannelPhase()
	w.recoveryPhase()

	sum := w.summary()
	assertChaosInvariants(t, seed, w, sum)
	if w.channelPaysOK == 0 {
		t.Errorf("[chaos seed %d] no channel payments landed — the channel schedule was vacuous", seed)
	}
	t.Logf("chaos seed %d: %d channel payments landed across %d windows", seed, w.channelPaysOK, len(w.channels))
	return sum
}

// TestChaosChannelLifecycles is the tentpole's chaos gate: channels and
// broker-side deposit batching enabled together under message drops and
// duplicates, full invariant check per seed.
func TestChaosChannelLifecycles(t *testing.T) {
	for _, c := range chaosCases(t, "TestChaosChannelLifecycles", []int64{21, 22, 23, 24}) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runChaosChannels(t, c.seed)
		})
	}
}

// TestChaosSeedReproducibility replays one seed and demands an identical
// summary: same mints, same redemptions, same fault schedule. This is what
// makes a failing chaos run debuggable.
func TestChaosSeedReproducibility(t *testing.T) {
	a := runChaos(t, 7, nil)
	b := runChaos(t, 7, nil)
	if a != b {
		t.Fatalf("same seed, different runs:\n  first  %+v\n  second %+v", a, b)
	}
}
