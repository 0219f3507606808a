package whopay_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section 6). Figure benchmarks run the
// discrete-event simulator at a reduced-but-shape-preserving scale per
// iteration and report the figure's headline quantities as custom metrics;
// cmd/whopay-sim regenerates the full-scale data series (CSV + plots).
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/core"
	"whopay/internal/costmodel"
	"whopay/internal/groupsig"
	"whopay/internal/layered"
	"whopay/internal/ppay"
	"whopay/internal/sig"
	"whopay/internal/sim"
)

// benchScale keeps per-iteration cost around a second while preserving
// every shape the figures assert.
func benchScale() sim.Scale {
	return sim.Scale{
		NumPeers:    60,
		Duration:    36 * time.Hour,
		MeanOnlines: []time.Duration{30 * time.Minute, 2 * time.Hour, 8 * time.Hour},
		MeanOffline: 2 * time.Hour,
		Sizes:       []int{30, 60, 90},
		Seed:        1,
	}
}

func runPoint(b *testing.B, mu time.Duration, policy core.Policy, mode core.SyncMode) *sim.Result {
	b.Helper()
	res, err := sim.Run(sim.Config{
		NumPeers:    benchScale().NumPeers,
		MeanOnline:  mu,
		MeanOffline: benchScale().MeanOffline,
		Duration:    benchScale().Duration,
		// The paper runs 10 days against a 3-day renewal period;
		// the bench horizon is scaled down, so the renewal period
		// scales with it (otherwise renewals never come due).
		RenewalPeriod: benchScale().Duration / 3,
		Policy:        policy,
		SyncMode:      mode,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Setup validates the Table 1 configuration matrix is
// constructible (every policy × sync × setup combination runs).
func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, policy := range []core.Policy{core.PolicyI, core.PolicyIIa, core.PolicyIIb, core.PolicyIII} {
			for _, mode := range []core.SyncMode{core.SyncProactive, core.SyncLazy} {
				res, err := sim.Run(sim.Config{
					NumPeers:    30,
					MeanOnline:  time.Hour,
					MeanOffline: 2 * time.Hour,
					Duration:    12 * time.Hour,
					Policy:      policy,
					SyncMode:    mode,
					Seed:        1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Payments == 0 {
					b.Fatalf("no payments under %v/%v", policy, mode)
				}
			}
		}
	}
}

// BenchmarkTable2KeyGen / Sign / Verify measure the crypto micro-operations
// the paper's Table 2 reports (DSA-1024 there; ECDSA P-256 here).
func BenchmarkTable2KeyGen(b *testing.B) {
	s := sig.ECDSA{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.GenerateKey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Sign(b *testing.B) {
	s := sig.ECDSA{}
	kp, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("table 2 measurement message")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(kp.Private, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Verify(b *testing.B) {
	s := sig.ECDSA{}
	kp, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("table 2 measurement message")
	sigBytes, err := s.Sign(kp.Private, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Relative reports the measured relative costs next to the
// paper's assumed 1/2/2 units.
func BenchmarkTable3Relative(b *testing.B) {
	var table costmodel.MeasuredTable
	var err error
	for i := 0; i < b.N; i++ {
		table, err = costmodel.Measure(sig.ECDSA{}, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(table.RelSign, "rel-sign")
	b.ReportMetric(table.RelVrfy, "rel-verify")
}

// BenchmarkFigure2BrokerOps regenerates Figure 2's quantities (broker
// operation counts, policy I + proactive sync) across the availability
// sweep and reports the mid-sweep values.
func BenchmarkFigure2BrokerOps(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		for _, mu := range benchScale().MeanOnlines {
			r := runPoint(b, mu, core.PolicyI, core.SyncProactive)
			if mu == 2*time.Hour {
				res = r
			}
		}
	}
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpPurchase)), "purchases")
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpDowntimeTransfer)), "dt-transfers")
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpDowntimeRenewal)), "dt-renewals")
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpSync)), "syncs")
}

// BenchmarkFigure3BrokerOpsLazy regenerates Figure 3 (lazy sync: no syncs).
func BenchmarkFigure3BrokerOpsLazy(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		for _, mu := range benchScale().MeanOnlines {
			r := runPoint(b, mu, core.PolicyI, core.SyncLazy)
			if mu == 2*time.Hour {
				res = r
			}
		}
	}
	if res.BrokerOps.Get(core.OpSync) != 0 {
		b.Fatal("lazy sync performed syncs")
	}
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpPurchase)), "purchases")
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpDowntimeTransfer)), "dt-transfers")
	b.ReportMetric(float64(res.BrokerOps.Get(core.OpDowntimeRenewal)), "dt-renewals")
}

// BenchmarkFigure4PeerOps regenerates Figure 4 (average peer operation
// counts, policy I + proactive).
func BenchmarkFigure4PeerOps(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res = runPoint(b, 2*time.Hour, core.PolicyI, core.SyncProactive)
	}
	if res.PeerOpsAvg(core.OpTransfer) <= res.PeerOpsAvg(core.OpPurchase) {
		b.Fatal("transfers do not dominate peer load")
	}
	b.ReportMetric(res.PeerOpsAvg(core.OpTransfer), "transfers/peer")
	b.ReportMetric(res.PeerOpsAvg(core.OpIssue), "issues/peer")
	b.ReportMetric(res.PeerOpsAvg(core.OpRenewal), "renewals/peer")
}

// BenchmarkFigure5PeerOpsLazy regenerates Figure 5 (adds checks).
func BenchmarkFigure5PeerOpsLazy(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res = runPoint(b, 2*time.Hour, core.PolicyI, core.SyncLazy)
	}
	b.ReportMetric(res.PeerOpsAvg(core.OpTransfer), "transfers/peer")
	b.ReportMetric(res.PeerOpsAvg(core.OpCheck), "checks/peer")
	b.ReportMetric(res.PeerOpsAvg(core.OpLazySync), "lazysyncs/peer")
}

// BenchmarkFigure6BrokerCPU regenerates Figure 6's comparison: broker CPU
// load under the four policy/sync configurations (lazy < proactive,
// III ≤ I).
func BenchmarkFigure6BrokerCPU(b *testing.B) {
	var loads [4]float64
	for i := 0; i < b.N; i++ {
		for k, key := range sim.AllSweepKeys() {
			res := runPoint(b, 2*time.Hour, key.Policy, key.Sync)
			loads[k] = float64(res.BrokerCPU)
		}
	}
	b.ReportMetric(loads[0], "I+pro")
	b.ReportMetric(loads[1], "I+lazy")
	b.ReportMetric(loads[2], "III+pro")
	b.ReportMetric(loads[3], "III+lazy")
	if loads[1] >= loads[0] {
		b.Fatal("lazy sync did not cut broker CPU load")
	}
}

// BenchmarkFigure7BrokerComm regenerates Figure 7 (communication load).
func BenchmarkFigure7BrokerComm(b *testing.B) {
	var pro, lazy float64
	for i := 0; i < b.N; i++ {
		pro = float64(runPoint(b, 2*time.Hour, core.PolicyI, core.SyncProactive).BrokerComm)
		lazy = float64(runPoint(b, 2*time.Hour, core.PolicyI, core.SyncLazy).BrokerComm)
	}
	b.ReportMetric(pro, "I+pro-msgs")
	b.ReportMetric(lazy, "I+lazy-msgs")
	if lazy >= pro {
		b.Fatal("lazy sync did not cut broker communication load")
	}
}

// BenchmarkFigure8CPULoadRatio regenerates Figure 8: the broker-to-peer
// CPU load ratio at low availability.
func BenchmarkFigure8CPULoadRatio(b *testing.B) {
	var low, high float64
	for i := 0; i < b.N; i++ {
		low = runPoint(b, 30*time.Minute, core.PolicyI, core.SyncProactive).CPULoadRatio()
		high = runPoint(b, 8*time.Hour, core.PolicyI, core.SyncProactive).CPULoadRatio()
	}
	b.ReportMetric(low, "ratio-lowavail")
	b.ReportMetric(high, "ratio-highavail")
	if low <= high {
		b.Fatal("load ratio does not decrease with availability")
	}
}

// BenchmarkFigure9CommLoadRatio regenerates Figure 9.
func BenchmarkFigure9CommLoadRatio(b *testing.B) {
	var low, high float64
	for i := 0; i < b.N; i++ {
		low = runPoint(b, 30*time.Minute, core.PolicyI, core.SyncProactive).CommLoadRatio()
		high = runPoint(b, 8*time.Hour, core.PolicyI, core.SyncProactive).CommLoadRatio()
	}
	b.ReportMetric(low, "ratio-lowavail")
	b.ReportMetric(high, "ratio-highavail")
}

// BenchmarkFigure10CPUShareScaling regenerates Figure 10 (Setup B): the
// broker's share of CPU load across system sizes — roughly flat, i.e.
// broker load grows linearly with total load, with peers absorbing ~95%.
func BenchmarkFigure10CPUShareScaling(b *testing.B) {
	sizes := benchScale().Sizes
	shares := make([]float64, len(sizes))
	for i := 0; i < b.N; i++ {
		for k, n := range sizes {
			res, err := sim.Run(sim.Config{
				NumPeers:    n,
				MeanOnline:  2 * time.Hour,
				MeanOffline: 2 * time.Hour,
				Duration:    benchScale().Duration,
				Policy:      core.PolicyI,
				Seed:        1,
			})
			if err != nil {
				b.Fatal(err)
			}
			shares[k] = res.BrokerCPUShare()
		}
	}
	for k, n := range sizes {
		b.ReportMetric(shares[k], fmt.Sprintf("share-n%d", n))
		if shares[k] > 0.3 {
			b.Fatalf("broker share %.3f at n=%d — peers not absorbing the load", shares[k], n)
		}
	}
}

// BenchmarkFigure11CommShareScaling regenerates Figure 11 (communication).
func BenchmarkFigure11CommShareScaling(b *testing.B) {
	sizes := benchScale().Sizes
	shares := make([]float64, len(sizes))
	for i := 0; i < b.N; i++ {
		for k, n := range sizes {
			res, err := sim.Run(sim.Config{
				NumPeers:    n,
				MeanOnline:  2 * time.Hour,
				MeanOffline: 2 * time.Hour,
				Duration:    benchScale().Duration,
				Policy:      core.PolicyI,
				Seed:        1,
			})
			if err != nil {
				b.Fatal(err)
			}
			shares[k] = res.BrokerCommShare()
		}
	}
	for k, n := range sizes {
		b.ReportMetric(shares[k], fmt.Sprintf("share-n%d", n))
	}
}

// BenchmarkTransferWhoPay measures one owner-serviced WhoPay transfer under
// real ECDSA crypto, end to end (offer, holder+group signatures, owner
// verification, re-binding, delivery, payee verification).
func BenchmarkTransferWhoPay(b *testing.B) {
	scheme := sig.ECDSA{}
	net := bus.NewMemory()
	dir := core.NewDirectory()
	judge, err := core.NewJudge(scheme)
	if err != nil {
		b.Fatal(err)
	}
	broker, err := core.NewBroker(core.BrokerConfig{
		Network: net, Scheme: scheme, Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	mk := func(id string) *core.Peer {
		p, err := core.NewPeer(core.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
			CredPool: b.N + 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	u, v, w := mk("u"), mk("v"), mk("w")
	defer u.Close()
	defer v.Close()
	defer w.Close()
	id, err := u.Purchase(1, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		b.Fatal(err)
	}
	from, to := v, w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := from.TransferTo(to.Addr(), id); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
	}
}

// BenchmarkTransferPPay is the PPay baseline for the same hop: no group
// signatures, no holder keys — cheaper, and zero anonymity. The delta
// against BenchmarkTransferWhoPay is the measured price of anonymity.
func BenchmarkTransferPPay(b *testing.B) {
	scheme := sig.ECDSA{}
	net := bus.NewMemory()
	dir := core.NewDirectory()
	broker, err := ppay.NewBroker(ppay.BrokerConfig{
		Network: net, Scheme: scheme, Directory: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	mk := func(id string) *ppay.Peer {
		p, err := ppay.NewPeer(ppay.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	u, v, w := mk("u"), mk("v"), mk("w")
	defer u.Close()
	defer v.Close()
	defer w.Close()
	sn, err := u.Purchase(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := u.IssueTo("v", sn); err != nil {
		b.Fatal(err)
	}
	names := [2]string{"w", "v"}
	from := v
	other := w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := from.TransferTo(names[i%2], sn); err != nil {
			b.Fatal(err)
		}
		from, other = other, from
	}
}

// BenchmarkAblationDetectionOff measures the cost of the real-time
// detection extension: the owner-side publish is one extra signature per
// transfer (4 vs 3 signs).
func BenchmarkAblationDetectionOff(b *testing.B) {
	var with, without int64
	for i := 0; i < b.N; i++ {
		r1, err := sim.Run(sim.Config{
			NumPeers: 40, MeanOnline: 2 * time.Hour, MeanOffline: 2 * time.Hour,
			Duration: 24 * time.Hour, Policy: core.PolicyI, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(sim.Config{
			NumPeers: 40, MeanOnline: 2 * time.Hour, MeanOffline: 2 * time.Hour,
			Duration: 24 * time.Hour, Policy: core.PolicyI, Seed: 1, DHTNodes: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		with, without = r1.PeerCPUTotal, r2.PeerCPUTotal
	}
	b.ReportMetric(float64(with), "peerCPU-with-dht")
	b.ReportMetric(float64(without), "peerCPU-without-dht")
}

// BenchmarkDepositChain measures layered-chain verification — the broker's
// work when a multi-hop offline coin comes home (handleLayeredDeposit) —
// with and without the crypto fast path. Each chain carries 2 + 3·hops
// signature checks; the cached suite amortises key decoding across layers
// (every layer re-verifies against the same group public key) and memoizes
// whole chains on repeat presentation.
func BenchmarkDepositChain(b *testing.B) {
	const hops = 4
	scheme := sig.ECDSA{}
	suite := sig.Suite{Scheme: scheme}
	brokerKeys, err := suite.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := groupsig.NewManager(scheme)
	if err != nil {
		b.Fatal(err)
	}
	groupPub := mgr.GroupPublicKey()
	coinKeys, err := suite.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	holder, err := suite.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	base := coin.Coin{Owner: "owner", Pub: coinKeys.Public, Value: 1}
	if base.Sig, err = suite.Sign(brokerKeys.Private, base.Message()); err != nil {
		b.Fatal(err)
	}
	binding := coin.Binding{CoinPub: coinKeys.Public, Holder: holder.Public, Seq: 1, Expiry: 99}
	if binding.Sig, err = suite.Sign(coinKeys.Private, binding.Message()); err != nil {
		b.Fatal(err)
	}
	lc := &layered.Coin{Base: base, Binding: binding}
	priv := holder.Private
	for i := 0; i < hops; i++ {
		mk, err := mgr.Enroll(fmt.Sprintf("hopper-%d", i), 4)
		if err != nil {
			b.Fatal(err)
		}
		next, err := suite.GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		if lc, err = layered.Hop(suite, lc, priv, mk, next.Public, 0); err != nil {
			b.Fatal(err)
		}
		priv = next.Private
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lc.Verify(suite, brokerKeys.Public, groupPub, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cachedSuite, _ := sig.NewCachedSuite(suite, sig.CacheOptions{})
		if err := lc.Verify(cachedSuite, brokerKeys.Public, groupPub, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lc.Verify(cachedSuite, brokerKeys.Public, groupPub, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
