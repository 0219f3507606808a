// Command whopay-bench regenerates the paper's Table 2 (measured crypto
// operation cost) and Table 3 (relative operation cost) on this machine.
//
// The paper measured DSA 1024-bit operations under Bouncy Castle on a
// 3.06 GHz Xeon (keygen 7.8 ms, sign 13.9 ms, verify 12.3 ms); this tool
// measures the production scheme, Ed25519, and with -scheme ecdsa (or all)
// the ECDSA P-256 stand-in, with the same methodology — N iterations of each
// micro-operation, averaged. Every mode runs Ed25519 unless -scheme says
// otherwise, the same scheme load.NewWorld and whopayd default to.
//
// The -protocol mode instead measures end-to-end protocol operations
// (transfer hops and deposit cycles) over the in-memory bus, optionally
// with the write-ahead log enabled, to put a number on durability's cost:
//
//	whopay-bench -protocol -ops 2000
//	whopay-bench -protocol -persist /tmp/whopay-wal -fsync always
//
// The -load mode runs the open-loop load harness (internal/load): many
// lightweight peer actors against a live broker (and optional DHT) over
// real TCP, issuing operations at a configured arrival rate. Latency is
// measured from each operation's intended start, so a stalled broker shows
// up in the tail instead of thinning the arrival stream. Each run writes a
// BENCH_load_<scenario>.json artifact and ends with a ledger audit:
//
//	whopay-bench -load -scenario steady -actors 500 -rate 200/s
//	whopay-bench -load -scenario all -wal -fsync interval -strict -out bench
//
// Usage:
//
//	whopay-bench -scheme all -iters 1000
//	whopay-bench -relative
//	whopay-bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"whopay/internal/bus"
	"whopay/internal/core"
	"whopay/internal/costmodel"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "whopay-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		schemeName = flag.String("scheme", sig.Default().Name(), "scheme to measure: ed25519 (production), ecdsa (the paper's DSA stand-in), all")
		iters      = flag.Int("iters", 500, "iterations per micro-operation")
		relative   = flag.Bool("relative", false, "also print Table 3 (relative cost units)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		protocol   = flag.Bool("protocol", false, "measure protocol operations (transfer, deposit) instead of crypto micro-ops")
		ops        = flag.Int("ops", 2000, "protocol operations per measurement")
		persistDir = flag.String("persist", "", "journal broker and payer state under this directory (protocol mode; empty: in-memory)")
		fsyncMode  = flag.String("fsync", "never", "journal fsync policy: never, interval, always")
		dump       = flag.Bool("metrics-dump", false, "instrument the protocol bench with a live obs registry and print the Prometheus exposition on exit")

		loadMode = flag.Bool("load", false, "run the open-loop load harness against a live tcpbus world (see -scenario)")
		scenario = flag.String("scenario", "steady", "load scenario to run, or 'all' for the whole matrix")
		actors   = flag.Int("actors", 200, "load mode: number of peer actors")
		rateStr  = flag.String("rate", "200/s", "load mode: open-loop arrival rate, e.g. 200/s")
		loadOps  = flag.Int("load-ops", 0, "load mode: bound the schedule by operation count (0: by -load-duration)")
		loadDur  = flag.Duration("load-duration", 30*time.Second, "load mode: bound the schedule by time")
		loadSeed = flag.Int64("load-seed", 1, "load mode: seed for the op mix and fault schedules")
		walOn    = flag.Bool("wal", false, "load mode: journal the broker (under -persist, or a temp dir)")
		outDir   = flag.String("out", ".", "load mode: directory for BENCH_load_<scenario>.json artifacts")
		strict   = flag.Bool("strict", false, "load mode: exit nonzero on unexpected protocol errors or audit violations")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "whopay-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "whopay-bench: memprofile:", err)
			}
		}()
	}

	var schemes []sig.Scheme
	switch *schemeName {
	case "ecdsa", "ecdsa-p256":
		schemes = []sig.Scheme{sig.ECDSA{}}
	case "ed25519":
		schemes = []sig.Scheme{sig.Ed25519{}}
	case "all":
		schemes = []sig.Scheme{sig.Ed25519{}, sig.ECDSA{}}
	default:
		return fmt.Errorf("unknown scheme %q (ed25519|ecdsa|all)", *schemeName)
	}

	if *loadMode {
		return runLoadBench(loadOpts{
			scenario: *scenario,
			actors:   *actors,
			rate:     *rateStr,
			ops:      *loadOps,
			duration: *loadDur,
			seed:     *loadSeed,
			scheme:   schemes[0],
			wal:      *walOn,
			walDir:   *persistDir,
			fsync:    *fsyncMode,
			out:      *outDir,
			strict:   *strict,
			dump:     *dump,
		})
	}

	if *protocol || *persistDir != "" {
		var reg *obs.Registry
		if *dump {
			reg = obs.NewRegistry()
		}
		if err := runProtocolBench(schemes[0], *ops, *persistDir, *fsyncMode, reg); err != nil {
			return err
		}
		if reg != nil {
			fmt.Println()
			fmt.Println("--- metrics dump (Prometheus exposition) ---")
			return reg.WritePrometheus(os.Stdout)
		}
		return nil
	}
	if *dump {
		return fmt.Errorf("-metrics-dump requires -protocol or -load (crypto micro-ops carry no registry)")
	}

	fmt.Printf("Table 2 analog — %d iterations per operation\n", *iters)
	fmt.Println("(paper, DSA-1024 on a 3.06GHz Xeon: keygen 7.8ms, sign 13.9ms, verify 12.3ms)")
	fmt.Println()
	for _, s := range schemes {
		table, err := costmodel.Measure(s, *iters)
		if err != nil {
			return err
		}
		fmt.Print(table.String())
		fmt.Println()
	}
	if *relative {
		fmt.Print(costmodel.RelativeTable())
	}
	return nil
}

// runProtocolBench measures end-to-end transfer hops and full deposit
// cycles over the in-memory bus, so the numbers isolate protocol +
// journaling cost from TCP. With -persist, the broker and every
// participating peer journal under persistDir with the given fsync policy.
func runProtocolBench(scheme sig.Scheme, ops int, persistDir, fsyncMode string, reg *obs.Registry) error {
	if ops < 1 {
		return fmt.Errorf("ops must be >= 1")
	}
	walConfig := func(role string) (*wal.Config, error) {
		if persistDir == "" {
			return nil, nil
		}
		policy, err := wal.ParsePolicy(fsyncMode)
		if err != nil {
			return nil, err
		}
		sub := filepath.Join(persistDir, role)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		return &wal.Config{Dir: sub, Policy: policy}, nil
	}

	network := bus.NewMemory()
	dir := core.NewDirectory()
	judge, err := core.NewJudge(scheme)
	if err != nil {
		return err
	}
	brokerWAL, err := walConfig("broker")
	if err != nil {
		return err
	}
	broker, err := core.NewBroker(core.BrokerConfig{
		Network:     network,
		Addr:        "broker",
		Scheme:      scheme,
		Directory:   dir,
		GroupPub:    judge.GroupPublicKey(),
		Persistence: brokerWAL,
		Obs:         reg,
	})
	if err != nil {
		return err
	}
	defer broker.Close()

	mkPeer := func(id string) (*core.Peer, error) {
		cfg, err := walConfig(id)
		if err != nil {
			return nil, err
		}
		return core.NewPeer(core.PeerConfig{
			ID:          id,
			Network:     network,
			Addr:        bus.Address("addr:" + id),
			Scheme:      scheme,
			Directory:   dir,
			BrokerAddr:  broker.Addr(),
			BrokerPub:   broker.PublicKey(),
			Judge:       judge,
			Persistence: cfg,
			Obs:         reg,
		})
	}
	owner, err := mkPeer("owner")
	if err != nil {
		return err
	}
	defer owner.Close()
	x, err := mkPeer("x")
	if err != nil {
		return err
	}
	defer x.Close()
	y, err := mkPeer("y")
	if err != nil {
		return err
	}
	defer y.Close()

	if persistDir == "" {
		fmt.Printf("Protocol bench — %d ops per measurement, scheme %s, persistence off\n", ops, scheme.Name())
	} else {
		fmt.Printf("Protocol bench — %d ops per measurement, scheme %s, journal under %s (fsync=%s)\n",
			ops, scheme.Name(), persistDir, fsyncMode)
	}

	// Transfer: one coin ping-pongs between x and y through its owner, so
	// each op is a full transfer round (owner re-binding + broker watch).
	id, err := owner.Purchase(1, false)
	if err != nil {
		return fmt.Errorf("purchase: %w", err)
	}
	if err := owner.IssueTo(x.Addr(), id); err != nil {
		return fmt.Errorf("issue: %w", err)
	}
	// A coin's record grows with every re-binding, so retire the coin and
	// mint a fresh one every 64 hops (off the clock) to measure the
	// steady-state hop cost rather than history growth.
	const freshEvery = 64
	cur, nxt := x, y
	var transferTime time.Duration
	for i := 0; i < ops; i++ {
		if i > 0 && i%freshEvery == 0 {
			if err := cur.Deposit(id, "payout:bench"); err != nil {
				return fmt.Errorf("retire %d: %w", i, err)
			}
			if id, err = owner.Purchase(1, false); err != nil {
				return fmt.Errorf("re-mint %d: %w", i, err)
			}
			if err := owner.IssueTo(cur.Addr(), id); err != nil {
				return fmt.Errorf("re-issue %d: %w", i, err)
			}
		}
		t0 := time.Now()
		if err := cur.TransferTo(nxt.Addr(), id); err != nil {
			return fmt.Errorf("transfer %d: %w", i, err)
		}
		transferTime += time.Since(t0)
		cur, nxt = nxt, cur
	}
	reportOps("transfer hop", ops, transferTime)

	// Deposit: a full coin lifecycle per op — purchase, self-issue,
	// deposit — the heaviest journaling path on the broker.
	start := time.Now()
	for i := 0; i < ops; i++ {
		id, err := owner.Purchase(1, false)
		if err != nil {
			return fmt.Errorf("purchase %d: %w", i, err)
		}
		if err := owner.IssueTo(owner.Addr(), id); err != nil {
			return fmt.Errorf("issue %d: %w", i, err)
		}
		if err := owner.Deposit(id, "payout:bench"); err != nil {
			return fmt.Errorf("deposit %d: %w", i, err)
		}
	}
	reportOps("deposit cycle", ops, time.Since(start))

	if err := broker.PersistenceErr(); err != nil {
		return fmt.Errorf("broker journal: %w", err)
	}
	return nil
}

func reportOps(name string, ops int, elapsed time.Duration) {
	per := elapsed / time.Duration(ops)
	fmt.Printf("  %-14s %8d ops  %12v total  %10v/op  %8.0f ops/s\n",
		name, ops, elapsed.Round(time.Millisecond), per.Round(time.Microsecond),
		float64(ops)/elapsed.Seconds())
}
