package load

import (
	"fmt"
	"os"
	"testing"
	"time"

	"whopay/internal/bus"
	"whopay/internal/dht/replica"
)

// TestHotCoinLeaseComparison runs the hot-coin scenario two ways — as
// defined (3/2/2 quorums with the client lease cache) and with the lease
// cache effectively off (a 1ns TTL — every read pays the full quorum) —
// and logs the latency profiles side by side. It regenerates the evidence
// behind results/dht_replica_bench.txt, so it only runs when asked:
//
//	WHOPAY_LEASE_CMP=1 go test -run TestHotCoinLeaseComparison -v ./internal/load/
func TestHotCoinLeaseComparison(t *testing.T) {
	if os.Getenv("WHOPAY_LEASE_CMP") == "" {
		t.Skip("set WHOPAY_LEASE_CMP=1 to run the lease on/off comparison")
	}
	sc, _ := FindScenario("hot-coin")
	variant := func(name string, rep *replica.Config) string {
		wcfg := sc.WorldConfig(WorldConfig{Actors: 16, Seed: 42, Network: bus.NewMemory()})
		wcfg.DHTReplication = rep
		w, err := NewWorld(wcfg)
		if err != nil {
			t.Fatalf("%s world: %v", name, err)
		}
		defer w.Close()
		run := NewRun(w, sc, RunConfig{
			Rate:       400,
			Ops:        4000,
			Seed:       42,
			DrainGrace: 60 * time.Second,
		})
		res := run.Run()
		audit := w.DrainAndAudit()
		if len(audit.Violations) > 0 {
			t.Fatalf("%s: audit violations: %v", name, audit.Violations)
		}
		hits, misses, _, _ := w.DHTLeaseStats()
		line := fmt.Sprintf("%-28s p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms  completed=%d failed=%d lease hits/misses=%d/%d",
			name,
			float64(res.Hist.Quantile(0.50))/1e6,
			float64(res.Hist.Quantile(0.90))/1e6,
			float64(res.Hist.Quantile(0.99))/1e6,
			float64(res.Hist.Max())/1e6,
			res.Completed, res.Failed, hits, misses)
		t.Log(line)
		return line
	}
	variant("hot-coin 3/2/2 lease off", &replica.Config{LeaseTTL: time.Nanosecond})
	variant("hot-coin 3/2/2 + lease", nil)
}
