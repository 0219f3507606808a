// Command bench is WhoPay's benchmark: one command that drives the real
// system (tcpbus on loopback, ECDSA P-256, 16 actors) through four
// closed-loop workloads, checks the ledger after each, and prints five
// end-to-end metrics per workload plus per-layer metrics from a separate
// traced run and isolated layer probes. See README.md.
//
//	go run ./bench                       the full run, writes bench-out/BENCH.json
//	go run ./bench -repeat 3             the same, three times, medians and quartiles
//	go run ./bench -compare old new      judge a new artifact against an old one
//	go run ./bench -probes               the layer probes alone
//	go run ./bench -workload steady -seed 7 -seconds 30 -trace 0
//	                                     one run of one workload, one JSON line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string // "": all four
	seed     int64
	measure  time.Duration
	warm     time.Duration
	traceRef time.Duration // traced run: untraced reference phase
	traced   time.Duration // traced run: traced phase
	repeat   int
	outDir   string
	probes   bool // the full run includes the layer probes
}

// Phase lengths of the full run. The warm-up is 3 s, not the 5 s first
// planned: the harness that consumes BENCHMARK.json caps the total time of
// its runs, and the measured phase is the last thing to shorten.
const (
	defaultWarm     = 3 * time.Second
	defaultMeasure  = 30 * time.Second
	defaultTraceRef = 5 * time.Second
	defaultTraced   = 10 * time.Second
)

// quick shortens every phase to a second or less and drops the probes.
func (o *options) quick() {
	o.measure, o.warm, o.traceRef, o.traced = time.Second, time.Second/2, time.Second/2, time.Second
	o.probes = false
}

var errNotOK = errors.New("bench: a workload failed its checks")

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (steady, broker-wal, micropay, hot-coin) and print one JSON result line")
		seed         = flag.Int64("seed", 1, "seed of every client's random streams")
		seconds      = flag.Int("seconds", int(defaultMeasure/time.Second), "length of the measured phase")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced run")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times and record medians and quartiles")
		quick        = flag.Bool("quick", false, "one-second phases and no probes: a smoke test, not a measurement")
		probesOnly   = flag.Bool("probes", false, "run the layer probes alone")
		compare      = flag.Bool("compare", false, "compare two artifacts: -compare old.json new.json")
		outDir       = flag.String("out", "bench-out", "directory for BENCH.json, traces and journal temp dirs")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare old.json new.json"))
		}
		pass, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(errors.New("bench: -seconds and -repeat must be at least 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	opts := options{
		seed: *seed, repeat: *repeat, outDir: *outDir,
		measure: time.Duration(*seconds) * time.Second, warm: defaultWarm,
		traceRef: defaultTraceRef, traced: defaultTraced,
		probes: true,
	}
	if *quick {
		opts.quick()
	}

	var err error
	switch {
	case *probesOnly:
		var ms []metric
		if ms, err = runProbes(*outDir); err == nil {
			printArtifact(os.Stdout, &artifact{Env: readEnv(), Probes: ms})
		}
	case *workloadName != "":
		opts.workload = *workloadName
		err = runOne(os.Stdout, opts, *trace == 1)
	default:
		_, err = runSuite(os.Stdout, opts)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runOne is the harness contract: one run of one workload, whose last line
// on w is a JSON object with the keys correct, attempted, failed and
// metrics — the end-to-end metrics of an untraced run, or with traced the
// per-layer metrics of a traced run whose two phases share opts.measure.
func runOne(w io.Writer, opts options, traced bool) error {
	wl, ok := findWorkload(opts.workload)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", opts.workload)
	}
	var res runResult
	var err error
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs()
		res, err = runTraced(wl, opts.seed, opts.warm, opts.measure/3, opts.measure-opts.measure/3, opts.outDir)
	} else {
		res, err = runEndToEnd(wl, opts.seed, opts.warm, opts.measure, opts.outDir)
	}
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.OK, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	for _, f := range res.Audit.Failed {
		fmt.Fprintln(os.Stderr, "bench: failed check:", f)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	if !res.OK {
		return errNotOK
	}
	return nil
}

// runSuite is the full run: every workload's end-to-end run opts.repeat
// times (opts.workload narrows the set to one), then the probes, then the
// traced runs. It writes BENCH.json, prints the report and fails if any
// workload is not ok.
func runSuite(w io.Writer, opts options) (*artifact, error) {
	a := &artifact{
		Env: readEnv(),
		Config: configInfo{
			Clients: benchClients, TraceClients: 1, Actors: benchActors, Seed: opts.seed, Repeat: opts.repeat,
			SetupRepeats: setupRepeats, WarmupS: opts.warm.Seconds(), MeasureS: opts.measure.Seconds(),
			TraceRefS: opts.traceRef.Seconds(), TracedS: opts.traced.Seconds(), Bounds: endToEndBounds,
		},
	}
	wls := workloads()
	if opts.workload != "" {
		wl, ok := findWorkload(opts.workload)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", opts.workload)
		}
		wls = []workload{wl}
	}
	e2e := make([][]map[string]float64, len(wls))
	a.Workloads = make([]workloadReport, len(wls))
	for i, wl := range wls {
		a.Workloads[i] = workloadReport{Name: wl.Name, Why: wl.Why, OK: true}
	}
	// Repeats go round the whole set, so a slow minute of the machine
	// spreads over the workloads instead of landing on one.
	for rep := 0; rep < opts.repeat; rep++ {
		for i, wl := range wls {
			fmt.Fprintf(os.Stderr, "bench: %s: end-to-end run %d/%d\n", wl.Name, rep+1, opts.repeat)
			res, err := runEndToEnd(wl, opts.seed, opts.warm, opts.measure, opts.outDir)
			if err != nil {
				return nil, err
			}
			e2e[i] = append(e2e[i], res.Metrics)
			r := &a.Workloads[i]
			r.OK = r.OK && res.OK
			r.Attempted += res.Attempted
			r.Succeeded += res.Succeeded
			r.FailShare = max(r.FailShare, res.FailShare)
			r.RejectedShare = max(r.RejectedShare, res.RejectedShare)
			r.SkipShare = max(r.SkipShare, res.SkipShare)
			r.Audit = res.Audit
		}
	}
	if opts.probes {
		fmt.Fprintln(os.Stderr, "bench: layer probes")
		var err error
		if a.Probes, err = runProbes(opts.outDir); err != nil {
			return nil, err
		}
	}
	for i, wl := range wls {
		fmt.Fprintf(os.Stderr, "bench: %s: traced run\n", wl.Name)
		res, err := runTraced(wl, opts.seed, opts.warm, opts.traceRef, opts.traced, opts.outDir)
		if err != nil {
			return nil, err
		}
		r := &a.Workloads[i]
		r.OK = r.OK && res.OK
		r.TraceAudit = &res.Audit
		r.EndToEnd = fold(endToEndDefs, e2e[i])
		r.PerLayer = fold(perLayerDefs(), []map[string]float64{res.Metrics})
		r.Attribution = attribution(r.PerLayer, a.Probes)
	}
	if err := writeJSON(filepath.Join(opts.outDir, "BENCH.json"), a); err != nil {
		return nil, err
	}
	printArtifact(w, a)
	for _, r := range a.Workloads {
		if !r.OK {
			return a, errNotOK
		}
	}
	return a, nil
}
