// Package sim is the discrete-event simulator reproducing the paper's
// evaluation (Section 6): 1000 peers with exponential online/offline
// sessions, Poisson candidate payments thinned by payee availability,
// spending policies I/II/III, proactive vs lazy synchronization, a renewal
// period of 3 days, and 10 simulated days per run.
//
// Unlike a counts-only model, the simulator drives the *real* protocol
// implementation in internal/core over the in-memory bus, under the null
// signature scheme with per-entity recorders: every operation count, crypto
// micro-operation, and message the figures report was actually performed by
// the production code path.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"whopay/internal/bus"
	"whopay/internal/core"
	"whopay/internal/costmodel"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/sig"
)

// Config parameterizes one simulation run. Zero fields take the paper's
// defaults (Table 1, Setup A, median downtime).
type Config struct {
	// NumPeers is the system size (paper: 1000 for Setup A, 100-1000
	// for Setup B).
	NumPeers int
	// MeanOnline is µ, the mean online session length (paper: 15 min -
	// 32 h).
	MeanOnline time.Duration
	// MeanOffline is ν, the mean offline session length (paper: 1/2/4 h;
	// all plotted results use 2 h).
	MeanOffline time.Duration
	// PaymentInterval is the mean candidate-payment interarrival per
	// peer (paper: 5 min).
	PaymentInterval time.Duration
	// RenewalPeriod is the coin renewal period (paper: 3 days).
	RenewalPeriod time.Duration
	// SweepInterval is how often holders scan for coins nearing expiry.
	SweepInterval time.Duration
	// Duration is the simulated horizon (paper: 10 days).
	Duration time.Duration
	// Policy is the spending policy (paper: I, II.a, II.b, III).
	Policy core.Policy
	// SyncMode selects proactive or lazy owner synchronization.
	SyncMode core.SyncMode
	// Seed makes the run reproducible.
	Seed int64
	// DHTNodes sizes the public-binding-list infrastructure (0 takes
	// the default of 8; negative disables it entirely, in which case
	// lazy sync relies on presented bindings).
	DHTNodes int
	// RequirePayerOnline additionally thins candidate payments by payer
	// availability. The paper thins by payee only (actual rate α per
	// 5 min), so this defaults to false.
	RequirePayerOnline bool
	// CredPool sizes each member's group-credential pool.
	CredPool int
	// InitialCash, when positive, gives each peer a finite purchase
	// budget at the broker; deposits (with the peer's identity as
	// payout reference) refill it. The default is unlimited (purchases
	// are backed by out-of-band money, as the paper assumes); the knob
	// exists for budget-constrained ablations.
	InitialCash int64
	// AuditLogCap bounds per-coin owner audit trails (simulation memory
	// control; disputes are not exercised by the load model).
	AuditLogCap int
}

func (c Config) withDefaults() Config {
	if c.NumPeers == 0 {
		c.NumPeers = 1000
	}
	if c.MeanOnline == 0 {
		c.MeanOnline = 2 * time.Hour
	}
	if c.MeanOffline == 0 {
		c.MeanOffline = 2 * time.Hour
	}
	if c.PaymentInterval == 0 {
		c.PaymentInterval = 5 * time.Minute
	}
	if c.RenewalPeriod == 0 {
		c.RenewalPeriod = 72 * time.Hour
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Hour
	}
	if c.Duration == 0 {
		c.Duration = 240 * time.Hour
	}
	switch {
	case c.DHTNodes == 0:
		c.DHTNodes = 8
	case c.DHTNodes < 0:
		// Negative disables the public binding list entirely.
		c.DHTNodes = 0
	}
	if c.CredPool == 0 {
		c.CredPool = 64
	}
	if c.AuditLogCap == 0 {
		c.AuditLogCap = 4
	}
	if c.InitialCash < 0 {
		c.InitialCash = 0
	}
	return c
}

// Availability returns α = µ/(µ+ν), the steady-state online probability.
func (c Config) Availability() float64 {
	mu := float64(c.MeanOnline)
	nu := float64(c.MeanOffline)
	if mu+nu == 0 {
		return 0
	}
	return mu / (mu + nu)
}

// Result aggregates one run's measurements.
type Result struct {
	Config Config

	// Operation counts (the quantities of Figures 2-5).
	BrokerOps    core.OpCounts
	PeerOpsTotal core.OpCounts

	// Weighted loads (Figures 6-11).
	BrokerCPU     int64
	PeerCPUTotal  int64
	BrokerComm    int64
	PeerCommTotal int64

	// Traffic bookkeeping.
	Candidates int64
	Payments   int64
	Failed     int64
	ByMethod   map[core.Method]int64
	Renewals   int64
}

// PeerOpsAvg returns the per-peer average for an operation (Figures 4-5).
func (r *Result) PeerOpsAvg(op core.Op) float64 {
	return float64(r.PeerOpsTotal.Get(op)) / float64(r.Config.NumPeers)
}

// PeerCPUAvg is the average peer CPU load.
func (r *Result) PeerCPUAvg() float64 {
	return float64(r.PeerCPUTotal) / float64(r.Config.NumPeers)
}

// PeerCommAvg is the average peer communication load.
func (r *Result) PeerCommAvg() float64 {
	return float64(r.PeerCommTotal) / float64(r.Config.NumPeers)
}

// CPULoadRatio is broker CPU over average peer CPU (Figure 8).
func (r *Result) CPULoadRatio() float64 {
	avg := r.PeerCPUAvg()
	if avg == 0 {
		return 0
	}
	return float64(r.BrokerCPU) / avg
}

// CommLoadRatio is broker comm over average peer comm (Figure 9).
func (r *Result) CommLoadRatio() float64 {
	avg := r.PeerCommAvg()
	if avg == 0 {
		return 0
	}
	return float64(r.BrokerComm) / avg
}

// BrokerCPUShare is the broker's fraction of total (broker+peers) CPU load
// (Figure 10).
func (r *Result) BrokerCPUShare() float64 {
	total := float64(r.BrokerCPU + r.PeerCPUTotal)
	if total == 0 {
		return 0
	}
	return float64(r.BrokerCPU) / total
}

// BrokerCommShare is the broker's fraction of total communication load
// (Figure 11).
func (r *Result) BrokerCommShare() float64 {
	total := float64(r.BrokerComm + r.PeerCommTotal)
	if total == 0 {
		return 0
	}
	return float64(r.BrokerComm) / total
}

// event kinds.
const (
	evChurn = iota
	evPayment
	evSweep
)

type event struct {
	at   time.Duration
	seq  uint64
	kind int
	peer int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// world is the running simulation state.
type world struct {
	cfg    Config
	rng    *mrand.Rand
	now    time.Time
	epoch  time.Time
	net    *bus.Memory
	broker *core.Broker
	peers  []*core.Peer
	online []bool
	recs   []*sig.Counter
	bRec   sig.Counter
	events eventHeap
	evSeq  uint64
	res    *Result
}

func (w *world) clock() time.Time { return w.now }

func (w *world) schedule(after time.Duration, kind, peer int) {
	w.evSeq++
	heap.Push(&w.events, event{
		at:   w.now.Sub(w.epoch) + after,
		seq:  w.evSeq,
		kind: kind,
		peer: peer,
	})
}

// exp draws an exponential variate with the given mean.
func (w *world) exp(mean time.Duration) time.Duration {
	return time.Duration(w.rng.ExpFloat64() * float64(mean))
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.NumPeers < 2 {
		return nil, errors.New("sim: need at least 2 peers")
	}
	w := &world{
		cfg:   cfg,
		rng:   mrand.New(mrand.NewSource(cfg.Seed)),
		epoch: time.Unix(1_700_000_000, 0),
		net:   bus.NewMemory(),
		res:   &Result{Config: cfg, ByMethod: make(map[core.Method]int64)},
	}
	w.now = w.epoch
	scheme := sig.NewNull(uint32(cfg.Seed))

	judge, err := core.NewJudge(scheme)
	if err != nil {
		return nil, err
	}
	dir := core.NewDirectory()

	var dhtAddrs []bus.Address
	for i := 0; i < cfg.DHTNodes; i++ {
		dhtAddrs = append(dhtAddrs, bus.Address(fmt.Sprintf("dht:%d", i)))
	}
	// The paper's accounting keeps one copy per binding: at 1/1/1 a
	// publish is one QuorumPutMsg and a lookup one LeaseGetMsg. Sweeps
	// are off and the 1ns lease TTL turns the read cache off — it runs on
	// wall-clock time, the simulation on a virtual clock — so every read
	// is exact and the message counts deterministic.
	dhtRep := &replica.Config{N: 1, W: 1, R: 1, SweepInterval: replica.SweepDisabled, LeaseTTL: time.Nanosecond}
	broker, err := core.NewBroker(core.BrokerConfig{
		Network:        w.net,
		Addr:           "broker",
		Scheme:         scheme,
		Recorder:       &w.bRec,
		Clock:          w.clock,
		RenewalPeriod:  cfg.RenewalPeriod,
		Directory:      dir,
		GroupPub:       judge.GroupPublicKey(),
		DHTNodes:       dhtAddrs,
		DHTReplication: dhtRep,
		InitialCredit:  cfg.InitialCash,
	})
	if err != nil {
		return nil, err
	}
	defer broker.Close()
	w.broker = broker

	var cluster *dht.Cluster
	if cfg.DHTNodes > 0 {
		cluster, err = dht.NewClusterWithConfig(dht.ClusterConfig{
			Network:     w.net,
			Scheme:      scheme,
			Nodes:       cfg.DHTNodes,
			Trusted:     []sig.PublicKey{broker.PublicKey()},
			Replication: dhtRep,
		})
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
	}

	w.peers = make([]*core.Peer, cfg.NumPeers)
	w.online = make([]bool, cfg.NumPeers)
	w.recs = make([]*sig.Counter, cfg.NumPeers)
	for i := 0; i < cfg.NumPeers; i++ {
		rec := &sig.Counter{}
		w.recs[i] = rec
		p, err := core.NewPeer(core.PeerConfig{
			ID:             fmt.Sprintf("peer-%d", i),
			Network:        w.net,
			Addr:           bus.Address(fmt.Sprintf("p:%d", i)),
			Scheme:         scheme,
			Recorder:       rec,
			Clock:          w.clock,
			RenewalPeriod:  cfg.RenewalPeriod,
			Directory:      dir,
			BrokerAddr:     "broker",
			BrokerPub:      broker.PublicKey(),
			Judge:          judge,
			CredPool:       cfg.CredPool,
			DHTNodes:       dhtAddrs,
			DHTReplication: dhtRep,
			// Owners publish whenever there is a DHT; the watch and its
			// cross-check are the detection extension, and the
			// paper's load study counts the publish and the lazy
			// checks only.
			WatchHeldCoins: false,
			SyncMode:       cfg.SyncMode,
			Prober:         w.net,
			Presence:       w.net,
			Rand:           mrand.New(mrand.NewSource(cfg.Seed ^ int64(i)*0x5851F42D4C957F2D)),
			AuditLogCap:    cfg.AuditLogCap,
		})
		if err != nil {
			return nil, err
		}
		defer p.Close()
		w.peers[i] = p
	}

	// Steady-state initial availability: online with probability α; the
	// exponential's memorylessness makes the residual session length the
	// full Exp again.
	alpha := cfg.Availability()
	for i := range w.peers {
		w.online[i] = w.rng.Float64() < alpha
		if !w.online[i] {
			w.peers[i].GoOffline()
		}
		mean := cfg.MeanOnline
		if !w.online[i] {
			mean = cfg.MeanOffline
		}
		w.schedule(w.exp(mean), evChurn, i)
		w.schedule(w.exp(cfg.PaymentInterval), evPayment, i)
	}
	w.schedule(cfg.SweepInterval, evSweep, -1)

	// Main loop.
	for {
		ev, ok := w.events.Peek()
		if !ok || ev.at > cfg.Duration {
			break
		}
		heap.Pop(&w.events)
		w.now = w.epoch.Add(ev.at)
		switch ev.kind {
		case evChurn:
			w.handleChurn(ev.peer)
		case evPayment:
			w.handlePayment(ev.peer)
		case evSweep:
			w.handleSweep()
			w.schedule(cfg.SweepInterval, evSweep, -1)
		}
	}

	w.collect()
	return w.res, nil
}

func (w *world) handleChurn(i int) {
	if w.online[i] {
		w.online[i] = false
		w.peers[i].GoOffline()
		w.schedule(w.exp(w.cfg.MeanOffline), evChurn, i)
		return
	}
	w.online[i] = true
	// GoOnline performs the proactive sync (or marks coins dirty under
	// lazy sync). A sync failure would need a live broker outage, which
	// the model does not include.
	_ = w.peers[i].GoOnline()
	w.schedule(w.exp(w.cfg.MeanOnline), evChurn, i)
}

func (w *world) handlePayment(i int) {
	defer w.schedule(w.exp(w.cfg.PaymentInterval), evPayment, i)
	w.res.Candidates++
	if w.cfg.RequirePayerOnline && !w.online[i] {
		return
	}
	// Uniform random payee; candidate becomes actual iff payee online.
	j := w.rng.Intn(w.cfg.NumPeers - 1)
	if j >= i {
		j++
	}
	if !w.online[j] {
		return
	}
	method, err := w.peers[i].Pay(w.peers[j].Addr(), 1, w.cfg.Policy)
	if err != nil {
		w.res.Failed++
		return
	}
	w.res.Payments++
	w.res.ByMethod[method]++
}

// handleSweep renews held coins that would expire before the next sweep —
// via the owner when it is online, via the broker otherwise. Offline
// holders renew at their first sweep after rejoining.
func (w *world) handleSweep() {
	deadline := w.now.Add(w.cfg.SweepInterval)
	for i, p := range w.peers {
		if !w.online[i] {
			continue
		}
		for _, id := range p.HeldCoins() {
			expiry, ok := p.HeldBindingExpiry(id)
			if !ok || expiry.After(deadline) {
				continue
			}
			owner, _ := p.HeldCoinOwner(id)
			var err error
			if owner != "" && w.ownerOnline(owner) {
				err = p.RenewViaOwner(id)
			} else {
				err = p.RenewViaBroker(id)
			}
			if err == nil {
				w.res.Renewals++
			}
		}
	}
}

func (w *world) ownerOnline(identity string) bool {
	var idx int
	if _, err := fmt.Sscanf(identity, "peer-%d", &idx); err != nil {
		return false
	}
	if idx < 0 || idx >= len(w.online) {
		return false
	}
	return w.online[idx]
}

func (w *world) collect() {
	res := w.res
	res.BrokerOps = w.broker.Ops()
	for _, p := range w.peers {
		res.PeerOpsTotal = res.PeerOpsTotal.Add(p.Ops())
	}
	res.BrokerCPU = costmodel.CPU(w.bRec.Snapshot())
	for _, rec := range w.recs {
		res.PeerCPUTotal += costmodel.CPU(rec.Snapshot())
	}
	res.BrokerComm = costmodel.Comm(w.net.Stats("broker"))
	for i := range w.peers {
		res.PeerCommTotal += costmodel.Comm(w.net.Stats(bus.Address(fmt.Sprintf("p:%d", i))))
	}
}
