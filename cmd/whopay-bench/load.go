package main

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"whopay/internal/load"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// loadOpts carries the -load mode's flag values.
type loadOpts struct {
	scenario string // a matrix name, or "all"
	actors   int
	rate     string // "200/s" (or bare "200")
	ops      int
	duration time.Duration
	seed     int64
	scheme   sig.Scheme
	wal      bool
	walDir   string // -persist when set; otherwise a temp dir per run
	fsync    string
	out      string
	strict   bool
	dump     bool
}

// parseRate accepts "200/s" or a bare number.
func parseRate(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "/s")
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || r <= 0 {
		return 0, fmt.Errorf("bad -rate %q (want e.g. 200/s)", s)
	}
	return r, nil
}

// runLoadBench drives the scenario matrix: for each selected scenario it
// builds a live world over tcpbus, runs the open-loop schedule, drains and
// audits the ledger, and writes BENCH_load_<scenario>.json. On SIGINT the
// schedule stops, a partial artifact (audit skipped, Interrupted set) is
// still written, and -metrics-dump still flushes the registry — partial
// JSON instead of nothing.
func runLoadBench(opts loadOpts) error {
	rate, err := parseRate(opts.rate)
	if err != nil {
		return err
	}
	if opts.ops <= 0 && opts.duration <= 0 {
		return fmt.Errorf("-load needs -load-ops or -load-duration")
	}
	fsync, err := wal.ParsePolicy(opts.fsync)
	if err != nil {
		return err
	}

	var names []string
	if opts.scenario == "all" {
		names = load.ScenarioNames()
	} else {
		if _, ok := load.FindScenario(opts.scenario); !ok {
			return fmt.Errorf("unknown scenario %q (have: %s, or all)",
				opts.scenario, strings.Join(load.ScenarioNames(), ", "))
		}
		names = []string{opts.scenario}
	}

	// One handler for the whole matrix: the first SIGINT stops the run in
	// flight (the drain and the artifact still happen); a second one kills
	// the process the default way.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var current atomic.Pointer[load.Driver]
	var interrupted atomic.Bool
	go func() {
		<-sigCh
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "whopay-bench: interrupt — stopping the schedule, writing a partial artifact")
		if d := current.Load(); d != nil {
			d.Stop()
		}
		signal.Stop(sigCh)
	}()

	var gateFailures []string
	for _, name := range names {
		if interrupted.Load() {
			break
		}
		failure, err := runLoadScenario(name, rate, fsync, opts, &current)
		if err != nil {
			return err
		}
		if failure != "" {
			gateFailures = append(gateFailures, failure)
		}
	}
	if interrupted.Load() {
		return fmt.Errorf("interrupted")
	}
	if opts.strict && len(gateFailures) > 0 {
		return fmt.Errorf("strict gate failed:\n  %s", strings.Join(gateFailures, "\n  "))
	}
	return nil
}

// runLoadScenario runs one scenario end to end and returns a non-empty
// strict-gate failure description when the run had unexpected protocol
// errors or the audit found violations.
func runLoadScenario(name string, rate float64, fsync wal.Policy, opts loadOpts, current *atomic.Pointer[load.Driver]) (string, error) {
	sc, _ := load.FindScenario(name)
	reg := obs.NewRegistry()

	walDir := ""
	if opts.wal {
		walDir = opts.walDir
		if walDir == "" {
			tmp, err := os.MkdirTemp("", "whopay-load-wal-")
			if err != nil {
				return "", fmt.Errorf("wal dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			walDir = tmp
		}
	}

	wcfg := sc.WorldConfig(load.WorldConfig{
		Actors: opts.actors,
		Scheme: opts.scheme,
		Seed:   opts.seed,
		WALDir: walDir,
		Fsync:  fsync,
		Reg:    reg,
	})
	fmt.Printf("==> scenario %s: %s\n", sc.Name, sc.Summary)
	fmt.Printf("    actors=%d rate=%.0f/s ops=%d duration=%s wal=%v detection=%v faults=%v channels=%d\n",
		opts.actors, rate, opts.ops, opts.duration, opts.wal, sc.Detection, sc.Faults,
		wcfg.Channels)
	if wcfg.Shards > 1 || wcfg.Replicas > 1 {
		fmt.Printf("    federation: shards=%d replicas=%d lease-ttl=%s\n",
			wcfg.Shards, wcfg.Replicas, wcfg.LeaseTTL)
	}

	w, err := load.NewWorld(wcfg)
	if err != nil {
		return "", fmt.Errorf("scenario %s: %w", name, err)
	}
	defer w.Close()

	run := load.NewRun(w, sc, load.RunConfig{
		Rate:     rate,
		Ops:      opts.ops,
		Duration: opts.duration,
		Seed:     opts.seed,
	})
	current.Store(run.Driver)
	res := run.Run()
	current.Store(nil)

	// An aborted schedule skips the drain: the partial artifact reports
	// what happened, with conservation unasserted (coins are still in
	// flight by construction).
	var audit load.Audit
	if res.Stopped {
		audit = w.AuditOnly()
	} else {
		audit = w.DrainAndAudit()
	}
	rep := load.BuildReport(run, res, audit)
	path, err := load.WriteReport(opts.out, rep)
	if err != nil {
		return "", err
	}
	printLoadSummary(rep, path)
	if opts.dump {
		fmt.Println()
		fmt.Printf("--- metrics dump (%s, Prometheus exposition) ---\n", sc.Name)
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return "", err
		}
	}

	var problems []string
	if rep.Errors.ProtocolUnexpected > 0 {
		problems = append(problems, fmt.Sprintf("%d unexpected protocol errors %v", rep.Errors.ProtocolUnexpected, rep.Errors.Rejections))
	}
	if rep.Errors.Other > 0 {
		problems = append(problems, fmt.Sprintf("%d unclassified errors", rep.Errors.Other))
	}
	if len(audit.Violations) > 0 {
		problems = append(problems, fmt.Sprintf("audit violations: %v", audit.Violations))
	}
	if len(problems) > 0 {
		return fmt.Sprintf("%s: %s", name, strings.Join(problems, "; ")), nil
	}
	return "", nil
}

// printLoadSummary renders one run's result for humans; the JSON artifact
// is the machine-readable record.
func printLoadSummary(rep load.Report, path string) {
	fmt.Printf("    scheduled %d  completed %d  failed %d  skipped %d  dropped %d  (%.1f/s achieved, target %.1f/s)\n",
		rep.Scheduled, rep.Completed, rep.Failed, rep.SkippedOps, rep.Dropped, rep.AchievedRate, rep.TargetRate)
	fmt.Printf("    latency ms: p50=%.2f p90=%.2f p99=%.2f p999=%.2f max=%.2f mean=%.2f\n",
		rep.LatencyMs.P50, rep.LatencyMs.P90, rep.LatencyMs.P99, rep.LatencyMs.P999, rep.LatencyMs.Max, rep.LatencyMs.Mean)
	fmt.Printf("    errors: timeouts=%d transport=%d protocol=%d (unexpected %d) other=%d\n",
		rep.Errors.Timeouts, rep.Errors.Transport, rep.Errors.Protocol, rep.Errors.ProtocolUnexpected, rep.Errors.Other)
	if len(rep.EventsFired) > 0 {
		fmt.Printf("    events fired: %s\n", strings.Join(rep.EventsFired, ", "))
	}
	if fo := rep.Failover; fo != nil {
		fmt.Printf("    failover: %d leaders killed, recover max %.0fms (promote mean %.1fms), %d redirects (%.3f/op)\n",
			fo.LeadersKilled, fo.RecoverMsMax, fo.PromoteMsMean, fo.Redirects, fo.RedirectRate)
	}
	switch {
	case rep.Audit.Skipped:
		fmt.Printf("    audit: skipped (run interrupted); no hard double-spend evidence: %v\n", rep.Audit.NoDoubleSpend)
	case len(rep.Audit.Violations) == 0:
		fmt.Printf("    audit: clean — issued %d, redeemed %d, ghost %d, conserved and no double spend\n",
			rep.Audit.Issued, rep.Audit.Deposited, rep.Audit.Ghost)
	default:
		fmt.Printf("    audit: VIOLATIONS %v\n", rep.Audit.Violations)
	}
	fmt.Printf("    artifact: %s\n", path)
}
