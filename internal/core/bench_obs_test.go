package core

import (
	"testing"

	"whopay/internal/obs"
	"whopay/internal/sig"
)

// Observability overhead benchmarks: the same owner-mediated transfer hop
// as BenchmarkTransferWAL's "none" variant, measured with instrumentation
// disabled (nil registry — the default for every deployment that doesn't
// opt in) and with a live registry recording latency histograms, op
// counters, and a span per operation.
//
// BenchmarkTransferWhoPay runs the production configuration (sig.Default);
// the off/on gap there is the deployment-visible price of leaving
// observability enabled, with a <2% acceptance bar (results/obs_bench.txt).
// BenchmarkTransferObs runs the null scheme, which strips away crypto and
// exposes the instrumentation's absolute per-hop cost (a handful of spans,
// histogram samples, and counter bumps).

func benchTransferHop(b *testing.B, scheme sig.Scheme, reg *obs.Registry) {
	b.Helper()
	f := newFixture(b, fixtureOpts{scheme: scheme, obs: reg})
	owner := f.addPeer("owner", nil)
	x := f.addPeer("x", nil)
	y := f.addPeer("y", nil)

	id, err := owner.Purchase(1, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := owner.IssueTo(x.Addr(), id); err != nil {
		b.Fatal(err)
	}
	// Same steady-state shape as BenchmarkTransferWAL: retire and re-mint
	// every 64 hops off the clock so coin-history growth doesn't pollute
	// the per-hop number.
	const freshEvery = 64
	cur, nxt := x, y
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%freshEvery == 0 {
			b.StopTimer()
			if err := cur.Deposit(id, "payout:bench"); err != nil {
				b.Fatal(err)
			}
			if id, err = owner.Purchase(1, false); err != nil {
				b.Fatal(err)
			}
			if err := owner.IssueTo(cur.Addr(), id); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cur.TransferTo(nxt.Addr(), id); err != nil {
			b.Fatal(err)
		}
		cur, nxt = nxt, cur
	}
	b.StopTimer()
	if reg != nil {
		// Sanity: the live variant must actually have recorded.
		if n := reg.Histogram("whopay_op_seconds", obs.Labels{"entity": "owner", "op": "serve-transfer"}, nil).Count(); n == 0 {
			b.Fatal("live registry recorded nothing")
		}
	}
}

// BenchmarkTransferWhoPay measures the production stack (sig.Default) with
// observability off and on.
func BenchmarkTransferWhoPay(b *testing.B) {
	b.Run("obs=off", func(b *testing.B) { benchTransferHop(b, sig.Default(), nil) })
	b.Run("obs=on", func(b *testing.B) { benchTransferHop(b, sig.Default(), obs.NewRegistry()) })
}

// BenchmarkTransferObs measures the null-crypto protocol skeleton, where
// the instrumentation's absolute cost is the whole off/on gap.
func BenchmarkTransferObs(b *testing.B) {
	b.Run("obs=off", func(b *testing.B) { benchTransferHop(b, sig.NewNull(1000), nil) })
	b.Run("obs=on", func(b *testing.B) { benchTransferHop(b, sig.NewNull(1000), obs.NewRegistry()) })
}
