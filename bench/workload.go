package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"whopay/internal/bus/tcpbus"
	"whopay/internal/load"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// Fixed load shape (echoed in every artifact). Two clients because the
// sandbox has two cores: more callers than cores measures the scheduler.
const (
	benchClients = 2
	benchActors  = 16
	setupRepeats = 5 // NewWorld is timed this many times; setup_s is the median
)

// workload is one traffic mix on one world shape. The mix, the world shape
// and the expected rejections come from a load.Scenario; Journal adds a
// broker write-ahead log with fsync=always under a temp dir.
type workload struct {
	Name     string
	Why      string
	Scenario *load.Scenario
	Journal  bool
}

func mustScenario(name string) *load.Scenario {
	sc, ok := load.FindScenario(name)
	if !ok {
		panic("bench: load scenario " + name + " is gone")
	}
	return sc
}

// workloads returns the benchmark's four workloads. Names are fixed: later
// issues cite them.
func workloads() []workload {
	return []workload{
		{
			Name: "steady",
			Why: "single-broker baseline (transfer 50/mint 15/renew 15/deposit 20): " +
				"holder and group signature checks dominate, so sig and core verify-path changes show here",
			Scenario: mustScenario("steady"),
		},
		{
			Name: "broker-wal",
			Why: "mint 45/deposit 45/transfer 10 on a broker journaled with fsync=always: " +
				"nine ops in ten write the trust root, so wal and store.Durable set the pace",
			Scenario: &load.Scenario{
				Name:      "broker-wal",
				Summary:   "broker-write-heavy mix on a journaled broker",
				WarmCoins: 4,
				Mix: []load.WeightedOp{
					{Name: "mint", Weight: 45, Do: (*load.World).OpMint},
					{Name: "deposit", Weight: 45, Do: (*load.World).OpDeposit},
					{Name: "transfer", Weight: 10, Do: (*load.World).OpTransfer},
				},
			},
			Journal: true,
		},
		{
			Name: "micropay",
			Why: "payword channel payments (70%) with batched deposits: one tcpbus round trip and a hash walk, " +
				"no signature on the path, so wire and tcpbus dominate and a pure sig change must not move it",
			Scenario: mustScenario("micropay"),
		},
		{
			Name: "hot-coin",
			Why: "eight contended coins with detection on a 3-node DHT at N/W/R 3/2/2: quorum writes beside " +
				"lease-cached reads plus owner lock contention, the only workload that touches dht",
			Scenario: mustScenario("hot-coin"),
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads() {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// world is a built load world plus what the benchmark needs to tear it
// down and read its counters.
type world struct {
	*load.World
	walDir string // "" unless journaled; removed by close
}

func (w *world) close() {
	w.World.Close()
	if w.walDir != "" {
		_ = os.RemoveAll(w.walDir)
	}
}

// buildWorld constructs and warms the workload's world and reports how
// long that took. With a tracer the world runs on the decorated scheme and
// transport; without, on exactly what load.NewWorld builds by default.
// Journals live in a fresh directory under outDir so the benchmark never
// writes outside its own tree.
func buildWorld(wl workload, seed int64, outDir string, tr *tracer) (*world, time.Duration, error) {
	reg := obs.NewRegistry()
	cfg := load.WorldConfig{Actors: benchActors, Seed: seed, Reg: reg}
	w := &world{}
	if wl.Journal {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("bench: out dir: %w", err)
		}
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, 0, fmt.Errorf("bench: wal dir: %w", err)
		}
		w.walDir = dir
		cfg.WALDir = dir
		cfg.Fsync = wal.FsyncAlways
	}
	if tr != nil {
		cfg.Scheme = tracedScheme{inner: sig.ECDSA{}, t: tr}
		// The same transport options load.NewWorld applies by default.
		cfg.Network = &tracedNet{t: tr, inner: tcpbus.New(
			tcpbus.WithObs(reg),
			tcpbus.WithCallTimeout(10*time.Second),
			tcpbus.WithDialTimeout(5*time.Second),
		)}
	}
	start := time.Now()
	lw, err := load.NewWorld(wl.Scenario.WorldConfig(cfg))
	took := time.Since(start)
	if err != nil {
		if w.walDir != "" {
			_ = os.RemoveAll(w.walDir)
		}
		return nil, 0, fmt.Errorf("bench: %s world: %w", wl.Name, err)
	}
	w.World = lw
	return w, took, nil
}

// verbsFor binds the workload's mix to a world.
func verbsFor(wl workload, w *load.World) []verb {
	vs := make([]verb, len(wl.Scenario.Mix))
	for i, op := range wl.Scenario.Mix {
		op := op
		vs[i] = verb{Name: op.Name, Weight: op.Weight, Do: func(rng *rand.Rand) error { return op.Do(w, rng) }}
	}
	return vs
}

// classifier returns the workload's outcome rule: ErrSkip is a skip, a
// protocol rejection the scenario declares expected is a rejection, and
// everything else — timeouts, transport errors, undeclared codes — failed.
func classifier(sc *load.Scenario) func(error) outcome {
	return func(err error) outcome {
		if errors.Is(err, load.ErrSkip) {
			return outSkipped
		}
		if class, code := load.Classify(err); class == load.ClassProtocol && sc.ExpectsRejection(code) {
			return outRejected
		}
		return outFailed
	}
}

// dirSize sums the sizes of the regular files under dir (0 for "").
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
