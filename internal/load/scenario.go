package load

import (
	"fmt"
	"math/rand"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
)

// WeightedOp is one verb in a scenario's traffic mix.
type WeightedOp struct {
	Name   string
	Weight int
	Do     func(*World, *rand.Rand) error
}

// Event is a world mutation fired partway through a run, at the given
// fraction of the planned schedule.
type Event struct {
	Frac float64
	Name string
	Do   func(*World, *rand.Rand)
}

// Scenario is one named profile of the load matrix: how the world is
// shaped, what the traffic mix is, what happens to the network mid-run,
// and which protocol rejections the profile legitimately produces (a
// hot-coin run *wants* ErrCoinBusy; anything outside the list is an
// unexpected protocol error).
type Scenario struct {
	Name    string
	Summary string

	Detection bool
	DHTNodes  int
	WarmCoins int
	HotCoins  int
	Channels  int
	Faults    bool
	Shards    int
	Replicas  int
	LeaseTTL  time.Duration

	// DHTReplication turns on the DHT quorum/anti-entropy subsystem and
	// DHTPersist journals the nodes (node-kill events need restartable
	// nodes). See WorldConfig.
	DHTReplication *replica.Config
	DHTPersist     bool

	Mix                []WeightedOp
	Events             []Event
	ExpectedRejections []string
}

// ExpectsRejection reports whether a protocol wire code is part of this
// scenario's expected output.
func (s *Scenario) ExpectsRejection(code string) bool {
	for _, c := range s.ExpectedRejections {
		if c == code {
			return true
		}
	}
	return false
}

// pickOp draws one verb from the mix.
func (s *Scenario) pickOp(rng *rand.Rand) WeightedOp {
	total := 0
	for _, op := range s.Mix {
		total += op.Weight
	}
	r := rng.Intn(total)
	for _, op := range s.Mix {
		if r < op.Weight {
			return op
		}
		r -= op.Weight
	}
	return s.Mix[len(s.Mix)-1]
}

// WorldConfig merges the scenario's world shape into a base config (which
// carries the deployment knobs: actor count, seed, transport, WAL).
func (s *Scenario) WorldConfig(base WorldConfig) WorldConfig {
	base.Detection = s.Detection
	base.DHTNodes = s.DHTNodes
	base.WarmCoins = s.WarmCoins
	base.HotCoins = s.HotCoins
	base.Channels = s.Channels
	base.Faults = s.Faults
	base.Shards = s.Shards
	base.Replicas = s.Replicas
	base.LeaseTTL = s.LeaseTTL
	base.DHTReplication = s.DHTReplication
	base.DHTPersist = s.DHTPersist
	return base
}

// contentionRejections are the codes coin races legitimately produce: a
// lost race on the owner's service lock, a holder that no longer holds, a
// binding that moved underfoot, an offer that lapsed, and the generic
// payment-refused verdict.
var contentionRejections = []string{
	"core.coin_busy",
	"core.not_holder",
	"core.unknown_coin",
	"core.stale_binding",
	"core.no_offer",
	"core.payment_failed",
}

// Scenarios returns the load matrix. Definitions are rebuilt on every call
// so callers can't corrupt the shared tables.
func Scenarios() []*Scenario {
	return []*Scenario{
		{
			Name:      "steady",
			Summary:   "balanced mix over a clean network — the baseline trajectory",
			WarmCoins: 4,
			Mix: []WeightedOp{
				{Name: "transfer", Weight: 50, Do: (*World).OpTransfer},
				{Name: "mint", Weight: 15, Do: (*World).OpMint},
				{Name: "renew", Weight: 15, Do: (*World).OpRenew},
				{Name: "deposit", Weight: 20, Do: (*World).OpDeposit},
			},
		},
		{
			Name:      "flash-crowd",
			Summary:   "purchase storm — everyone mints at once, the broker's hot path",
			WarmCoins: 2,
			Mix: []WeightedOp{
				{Name: "purchase", Weight: 80, Do: (*World).OpPurchase},
				{Name: "transfer", Weight: 20, Do: (*World).OpTransfer},
			},
		},
		{
			Name:      "hot-coin",
			Summary:   "contention on a few shared coins — service locks and the DHT witness path under fire",
			Detection: true,
			DHTNodes:  3,
			// Quorum replication with the hot-coin lease cache: the same
			// few bindings are read over and over, so leases carry the
			// read load (DESIGN.md §14).
			DHTReplication: &replica.Config{N: 3, W: 2, R: 2},
			WarmCoins:      2,
			HotCoins:       8,
			Mix: []WeightedOp{
				{Name: "hot-transfer", Weight: 45, Do: (*World).OpHotTransfer},
				{Name: "hot-verify", Weight: 25, Do: (*World).OpHotVerify},
				{Name: "hot-renew", Weight: 15, Do: (*World).OpHotRenew},
				{Name: "transfer", Weight: 15, Do: (*World).OpTransfer},
			},
			ExpectedRejections: contentionRejections,
		},
		{
			Name:      "mass-downtime",
			Summary:   "owner churn — peers drop off and rejoin while traffic leans on the broker's downtime path",
			Detection: true,
			DHTNodes:  3,
			WarmCoins: 4,
			Faults:    true,
			Mix: []WeightedOp{
				{Name: "transfer", Weight: 40, Do: (*World).OpTransfer},
				{Name: "downtime-transfer", Weight: 25, Do: (*World).OpDowntimeTransfer},
				{Name: "renew", Weight: 10, Do: (*World).OpRenew},
				{Name: "deposit", Weight: 15, Do: (*World).OpDeposit},
				{Name: "mint", Weight: 10, Do: (*World).OpMint},
			},
			Events:             churnEvents(9),
			ExpectedRejections: contentionRejections,
		},
		{
			Name:      "double-spend-flood",
			Summary:   "deposit replays at volume — the broker must credit once and reject every copy",
			Detection: true,
			DHTNodes:  3,
			WarmCoins: 3,
			Mix: []WeightedOp{
				{Name: "double-spend", Weight: 50, Do: (*World).OpDoubleSpend},
				{Name: "transfer", Weight: 30, Do: (*World).OpTransfer},
				{Name: "mint", Weight: 20, Do: (*World).OpMint},
			},
			ExpectedRejections: contentionRejections,
		},
		{
			Name: "micropay",
			Summary: "micropayment channels — paywords on the hot path, windows settled in " +
				"single WhoPay payments, each broker deposit its own flush",
			WarmCoins: 2,
			Channels:  8,
			Mix: []WeightedOp{
				{Name: "channel-pay", Weight: 70, Do: (*World).OpChannelPay},
				{Name: "channel-settle", Weight: 8, Do: (*World).OpChannelSettle},
				{Name: "deposit", Weight: 10, Do: (*World).OpDeposit},
				{Name: "transfer", Weight: 7, Do: (*World).OpTransfer},
				{Name: "mint", Weight: 5, Do: (*World).OpMint},
			},
			ExpectedRejections: append([]string{"core.no_channel", "core.channel_closed"}, contentionRejections...),
		},
		{
			Name: "broker-failover",
			Summary: "federated trust root under crash-failover — shard leaders killed mid-run, " +
				"followers promote from mirrored logs, clients ride retries and redirects",
			WarmCoins: 4,
			Shards:    2,
			Replicas:  2,
			LeaseTTL:  250 * time.Millisecond,
			Mix: []WeightedOp{
				{Name: "transfer", Weight: 40, Do: (*World).OpTransfer},
				{Name: "mint", Weight: 20, Do: (*World).OpMint},
				{Name: "renew", Weight: 10, Do: (*World).OpRenew},
				{Name: "deposit", Weight: 30, Do: (*World).OpDeposit},
			},
			Events: []Event{
				{Frac: 0.35, Name: "kill-leader", Do: (*World).KillNextLeader},
				{Frac: 0.70, Name: "kill-leader-2", Do: (*World).KillNextLeader},
			},
			// A kill window legitimately surfaces the federation verdicts
			// (redirects that ran out of retry budget) and retried deposits
			// that had already committed.
			ExpectedRejections: append([]string{
				"core.not_leader",
				"core.wrong_shard",
				"core.already_deposited",
			}, contentionRejections...),
		},
		{
			Name: "dht-node-kill",
			Summary: "DHT replica killed mid-transfer-storm — quorum writes ride the surviving " +
				"majority, the restarted node catches up by anti-entropy, leases absorb hot reads",
			Detection:      true,
			DHTNodes:       3,
			DHTReplication: &replica.Config{N: 3, W: 2, R: 2},
			DHTPersist:     true,
			WarmCoins:      3,
			HotCoins:       6,
			Mix: []WeightedOp{
				{Name: "hot-transfer", Weight: 35, Do: (*World).OpHotTransfer},
				{Name: "transfer", Weight: 25, Do: (*World).OpTransfer},
				{Name: "hot-verify", Weight: 15, Do: (*World).OpHotVerify},
				{Name: "hot-renew", Weight: 10, Do: (*World).OpHotRenew},
				{Name: "mint", Weight: 15, Do: (*World).OpMint},
			},
			Events: []Event{
				{Frac: 0.35, Name: "kill-dht-node", Do: (*World).KillDHTNode},
				{Frac: 0.65, Name: "restart-dht-node", Do: (*World).RestartDHTNode},
			},
			// A kill window legitimately surfaces quorum failures (a write
			// caught with the coordinator down mid-fan-out) on top of the
			// usual contention codes.
			ExpectedRejections: append([]string{"dht.quorum_failed"}, contentionRejections...),
		},
		{
			Name:      "partition",
			Summary:   "a quarter of the actors cut off mid-run, healed later — errors spike, invariants must not",
			Detection: true,
			DHTNodes:  3,
			WarmCoins: 4,
			Faults:    true,
			Mix: []WeightedOp{
				{Name: "transfer", Weight: 45, Do: (*World).OpTransfer},
				{Name: "renew", Weight: 15, Do: (*World).OpRenew},
				{Name: "deposit", Weight: 20, Do: (*World).OpDeposit},
				{Name: "mint", Weight: 20, Do: (*World).OpMint},
			},
			Events: []Event{
				{Frac: 0.30, Name: "cut-region", Do: func(w *World, _ *rand.Rand) { w.CutRegion() }},
				{Frac: 0.70, Name: "heal", Do: func(w *World, _ *rand.Rand) { w.HealNetwork() }},
			},
			ExpectedRejections: contentionRejections,
		},
	}
}

// FindScenario resolves a profile by name.
func FindScenario(name string) (*Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// ScenarioNames lists the matrix in definition order.
func ScenarioNames() []string {
	var names []string
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	return names
}

// churnEvents spreads n churn toggles evenly across the run.
func churnEvents(n int) []Event {
	var evs []Event
	for i := 1; i <= n; i++ {
		evs = append(evs, Event{
			Frac: float64(i) / float64(n+1),
			Name: fmt.Sprintf("churn-%d", i),
			Do:   (*World).Churn,
		})
	}
	return evs
}

// Churn toggles roughly a tenth of the actors between online and offline,
// keeping at least two thirds up. Going down is the full downtime protocol
// plus a network cut (GoOffline, then partitioned from everyone); coming
// back reverses the order so the rejoin Sync can reach the broker.
func (w *World) Churn(rng *rand.Rand) {
	if w.FB == nil {
		return
	}
	n := len(w.Actors)
	offline := 0
	for _, a := range w.Actors {
		if a.isOffline() {
			offline++
		}
	}
	for t := 0; t < n/10+1; t++ {
		a := w.Actors[rng.Intn(n)]
		if a.isOffline() {
			w.FB.Unpartition([]bus.Address{a.Peer.Addr()}, w.addrsExcept(a.Idx))
			a.setOffline(false)
			_ = a.Peer.GoOnline() // sync may fail under faults; lazy checks recover
			offline--
		} else if offline < n/3 {
			a.Peer.GoOffline()
			w.FB.Partition([]bus.Address{a.Peer.Addr()}, w.addrsExcept(a.Idx))
			a.setOffline(true)
			offline++
		}
	}
}

// CutRegion partitions the last quarter of the actors from everything else
// — actors, broker, judge, DHT. The cut actors stay in the op mix on
// purpose: their failures are the scenario's measurement, not noise.
func (w *World) CutRegion() {
	if w.FB == nil {
		return
	}
	n := len(w.Actors)
	var cut, rest []bus.Address
	for i, a := range w.Actors {
		if i >= n*3/4 {
			cut = append(cut, a.Peer.Addr())
		} else {
			rest = append(rest, a.Peer.Addr())
		}
	}
	rest = append(rest, w.infraAddrs()...)
	w.FB.Partition(rest, cut)
}

// HealNetwork lifts every configured fault.
func (w *World) HealNetwork() {
	if w.FB != nil {
		w.FB.Heal()
	}
}

// infraAddrs lists the non-actor endpoints: broker(s), judge, DHT nodes.
func (w *World) infraAddrs() []bus.Address {
	addrs := append(w.brokerAddrs(), w.JudgeSrv.Addr())
	if w.Cluster != nil {
		addrs = append(addrs, w.Cluster.Addrs()...)
	}
	return addrs
}

// addrsExcept lists every endpoint except actor i's.
func (w *World) addrsExcept(i int) []bus.Address {
	addrs := w.infraAddrs()
	for _, a := range w.Actors {
		if a.Idx != i {
			addrs = append(addrs, a.Peer.Addr())
		}
	}
	return addrs
}
