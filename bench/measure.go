package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"whopay/internal/load"
	"whopay/internal/obs"
)

// counters is a point-in-time read of every public counter the per-layer
// metrics are built from. Deltas across a phase are what count.
type counters struct {
	brokerOps     int64
	leaseHits     uint64
	leaseMisses   uint64
	tcpCalls      float64
	tcpBytes      float64
	fsyncs        int64
	fsyncSec      float64
	batchFlushes  int64
	batchDeposits float64
	walBytes      int64
	mallocs       uint64
	allocBytes    uint64
	gcPauseNs     uint64
	cpu           time.Duration
}

func readCounters(w *world) counters {
	var c counters
	c.brokerOps = w.Broker.Ops().Total()
	c.leaseHits, c.leaseMisses, _, _ = w.DHTLeaseStats()
	c.tcpCalls, _ = w.Reg.Value("whopay_tcpbus_calls_total", nil)
	c.tcpBytes, _ = w.Reg.Value("whopay_tcpbus_bytes_tx_total", nil)
	if w.walDir != "" {
		h := w.Reg.Histogram("whopay_wal_fsync_seconds", obs.Labels{"entity": "broker"}, nil)
		c.fsyncs, c.fsyncSec = h.Count(), h.Sum()
		c.walBytes = dirSize(w.walDir)
	}
	if v, ok := w.Reg.Value("whopay_broker_deposit_batch_occupancy", nil); ok {
		h := w.Reg.Histogram("whopay_broker_deposit_batch_occupancy", nil, nil)
		c.batchFlushes, c.batchDeposits = int64(v), h.Sum()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	c.cpu = processCPU()
	return c
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// phase is one measured phase: what the loop saw plus the counter deltas
// across it.
type phase struct {
	phaseResult
	before, after counters
	ticks         []cpuTick
	verbNames     []string
}

// cpuTick is one reading of the process CPU clock.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

// rateWindow is the length of the windows the end-to-end rates are taken
// over; tailWindows of them make one window for the 99th percentile.
const (
	rateWindow  = time.Second
	tailWindows = 5
)

// sampleCPU reads the process CPU clock now and then every rateWindow
// until stop is closed. Consecutive ticks bound the measured phase's
// windows.
func sampleCPU(stop <-chan struct{}) []cpuTick {
	ticks := []cpuTick{{time.Now(), processCPU()}}
	tk := time.NewTicker(rateWindow)
	defer tk.Stop()
	for {
		select {
		case now := <-tk.C:
			ticks = append(ticks, cpuTick{now, processCPU()})
		case <-stop:
			return ticks
		}
	}
}

// window is the successful verbs that returned between two CPU ticks.
type window struct {
	dur time.Duration
	cpu time.Duration
	lat []int64
}

// windows cuts the phase's samples at its CPU ticks. The tail after the
// last tick is shorter than a window and is left out.
func (p *phase) windows() []window {
	if len(p.ticks) < 2 {
		return nil
	}
	ws := make([]window, len(p.ticks)-1)
	bounds := make([]time.Duration, len(p.ticks))
	for i, t := range p.ticks {
		bounds[i] = t.at.Sub(p.Start)
		if i > 0 {
			ws[i-1].dur = t.at.Sub(p.ticks[i-1].at)
			ws[i-1].cpu = t.cpu - p.ticks[i-1].cpu
		}
	}
	for _, s := range p.Samples {
		// first bound after the sample's end, minus one, is its window
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.end }) - 1
		if i >= 0 && i < len(ws) {
			ws[i].lat = append(ws[i].lat, int64(s.lat))
		}
	}
	return ws
}

func (p *phase) ok() int64 { return p.Outcomes[outOK] }

// perOp divides by the number of successful verbs.
func (p *phase) perOp(x float64) float64 {
	if p.ok() == 0 {
		return 0
	}
	return x / float64(p.ok())
}

// runPhases warms the world up and then measures it. The warm-up's results
// are discarded; it fills the signature caches, credential pools and
// connection pools the measured phase should find full.
func runPhases(wl workload, w *world, clients int, seed int64, warm, measure time.Duration, tr *tracer) phase {
	cfg := loopConfig{
		Clients:  clients,
		Seed:     seed,
		Verbs:    verbsFor(wl, w.World),
		Classify: classifier(wl.Scenario),
	}
	if tr != nil {
		cfg.OnVerb = tr.beginVerb
	}
	l := newLoop(cfg)
	l.runPhase(warm, 0)

	// Start the measured phase from a collected heap, so a GC cycle
	// inherited from set-up or warm-up does not land in it by chance.
	runtime.GC()
	p := phase{before: readCounters(w)}
	if tr != nil {
		tr.on.Store(true)
	}
	stop := make(chan struct{})
	ticks := make(chan []cpuTick, 1)
	go func() { ticks <- sampleCPU(stop) }()
	p.phaseResult = l.runPhase(measure, 0)
	close(stop)
	p.ticks = <-ticks
	if tr != nil {
		tr.on.Store(false)
	}
	p.after = readCounters(w)
	for _, v := range cfg.Verbs {
		p.verbNames = append(p.verbNames, v.Name)
	}
	return p
}

// metric is one named measurement. Unit and Better make every artifact
// self-describing; Runs, Q1 and Q3 are present when -repeat made more than
// one run, and Value is then the median.
type metric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Runs   []float64 `json:"runs,omitempty"`
}

// metricDef declares a metric: its name, unit and which direction is good.
type metricDef struct {
	Name, Unit, Better string
}

// boundDef is an end-to-end metric's regression bound: the share of the
// old median by which it may worsen, and for setup_s an absolute floor in
// the metric's own unit below which a worsening is not counted.
type boundDef struct {
	Share float64
	Floor float64
}

// endToEndDefs are the five end-to-end metrics, per workload. BENCHMARK.json
// repeats names, units, directions and bounds; a test keeps the two equal.
var endToEndDefs = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// Every share is 0.25, the most the harness allows, where the issue hoped
// for 5-10%: ten 30 s runs per workload on the two-core sandbox spread
// (interquartile range over median) by up to 12% on every metric, because
// the machine's own speed drifts from minute to minute, and a bound has to
// sit well clear of that (README, "Bounds").
var endToEndBounds = map[string]boundDef{
	"ops_per_s":     {Share: 0.25},
	"p50_ms":        {Share: 0.25},
	"p99_ms":        {Share: 0.25},
	"cpu_ms_per_op": {Share: 0.25},
	"setup_s":       {Share: 0.25, Floor: 0.25},
}

// endToEnd computes the untraced run's end-to-end metrics. The sandbox's
// speed wanders on a scale of seconds, so the rates are medians over
// one-second windows and the 99th percentile is the median over five-second
// windows of each window's own 99th percentile: a neighbour's burst moves a
// few windows, not the result. (Across six 30 s runs of steady this halved
// the spread of ops_per_s and cpu_ms_per_op against whole-phase means.) A
// phase too short for one full window falls back to whole-phase values.
func endToEnd(p *phase, setup time.Duration) map[string]float64 {
	lat := latencies(p.Samples, -1)
	m := map[string]float64{
		"ops_per_s":     float64(p.ok()) / p.Elapsed.Seconds(),
		"p50_ms":        float64(percentile(lat, 50)) / 1e6,
		"p99_ms":        float64(percentile(lat, 99)) / 1e6,
		"cpu_ms_per_op": p.perOp(float64(p.after.cpu-p.before.cpu) / 1e6),
		"setup_s":       setup.Seconds(),
	}
	var rates, cpus, tails []float64
	var tail []int64
	for i, w := range p.windows() {
		n := float64(len(w.lat))
		rates = append(rates, n/w.dur.Seconds())
		if n > 0 {
			cpus = append(cpus, float64(w.cpu)/1e6/n)
		}
		tail = append(tail, w.lat...)
		if (i+1)%tailWindows == 0 {
			slices.Sort(tail)
			tails = append(tails, float64(percentile(tail, 99))/1e6)
			tail = tail[:0]
		}
	}
	if len(cpus) > 0 {
		m["ops_per_s"], m["cpu_ms_per_op"] = median(rates), median(cpus)
	}
	if len(tails) > 0 {
		m["p99_ms"] = median(tails)
	}
	return m
}

// mixVerbs lists every verb name any workload's mix uses, sorted, so the
// per-layer metric list is the same for all workloads (0 where a verb is
// not in the mix).
func mixVerbs() []string {
	seen := map[string]bool{}
	var out []string
	for _, wl := range workloads() {
		for _, op := range wl.Scenario.Mix {
			if !seen[op.Name] {
				seen[op.Name] = true
				out = append(out, op.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// perLayerDefs lists the per-layer metrics in report order.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"sig.signs_per_op", "count", "lower"},
		{"sig.verifies_per_op", "count", "lower"},
		{"sig.busy_us_per_op", "us", "lower"},
		{"bus.calls_per_op", "count", "lower"},
		{"bus.bytes_per_op", "B", "lower"},
		{"bus.transit_us_per_op", "us", "lower"},
		{"wal.fsyncs_per_op", "count", "lower"},
		{"wal.fsync_us_per_op", "us", "lower"},
		{"wal.bytes_per_op", "B", "lower"},
		{"dht.calls_per_op", "count", "lower"},
		{"dht.serve_us_per_op", "us", "lower"},
		{"dht.lease_hit_ratio", "ratio", "higher"},
		{"core.broker_calls_per_op", "count", "lower"},
		{"core.self_us_per_op", "us", "lower"},
		{"core.transfer_self_us", "us", "lower"},
		{"core.verb_us_per_op", "us", "lower"},
		{"core.deposit_batch_mean", "count", "higher"},
	}
	for _, v := range mixVerbs() {
		defs = append(defs, metricDef{"core." + v + "_p50_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"go.allocs_per_op", "count", "lower"},
		metricDef{"go.alloc_kb_per_op", "KB", "lower"},
		metricDef{"go.gc_pause_ms_per_s", "ms/s", "lower"},
		metricDef{"peak_rss_mb", "MB", "lower"},
		metricDef{"trace_overhead", "ratio", "lower"},
	)
}

// perLayer computes the per-layer metrics from the traced phase, its spans
// and the untraced single-client reference phase. Everything is per
// successful verb of the traced phase, except the Go runtime numbers and
// trace_overhead's base, which come from the reference phase so the span
// store's own allocations stay out of them.
func perLayer(traced *phase, sums spanSums, ref *phase, rssMB float64) map[string]float64 {
	d := func(after, before float64) float64 { return traced.perOp(after - before) }
	b, a := traced.before, traced.after
	fsyncNs := (a.fsyncSec - b.fsyncSec) * 1e9
	coreSelf := float64(sums.CoreSelfNs) - fsyncNs
	if coreSelf < 0 {
		coreSelf = 0
	}
	m := map[string]float64{
		"sig.signs_per_op":         traced.perOp(float64(sums.Signs)),
		"sig.verifies_per_op":      traced.perOp(float64(sums.Verifies)),
		"sig.busy_us_per_op":       traced.perOp(float64(sums.SigNs) / 1e3),
		"bus.calls_per_op":         d(a.tcpCalls, b.tcpCalls),
		"bus.bytes_per_op":         d(a.tcpBytes, b.tcpBytes),
		"bus.transit_us_per_op":    traced.perOp(float64(sums.transitNs()) / 1e3),
		"wal.fsyncs_per_op":        d(float64(a.fsyncs), float64(b.fsyncs)),
		"wal.fsync_us_per_op":      traced.perOp(fsyncNs / 1e3),
		"wal.bytes_per_op":         d(float64(a.walBytes), float64(b.walBytes)),
		"dht.calls_per_op":         traced.perOp(float64(sums.Calls[roleDHT])),
		"dht.serve_us_per_op":      traced.perOp(float64(sums.DHTNs) / 1e3),
		"core.broker_calls_per_op": d(float64(a.brokerOps), float64(b.brokerOps)),
		"core.self_us_per_op":      traced.perOp(coreSelf / 1e3),
		"core.verb_us_per_op":      traced.perOp(float64(sums.VerbNs) / 1e3),
	}
	if reads := float64(a.leaseHits-b.leaseHits) + float64(a.leaseMisses-b.leaseMisses); reads > 0 {
		m["dht.lease_hit_ratio"] = float64(a.leaseHits-b.leaseHits) / reads
	}
	if flushes := a.batchFlushes - b.batchFlushes; flushes > 0 {
		m["core.deposit_batch_mean"] = (a.batchDeposits - b.batchDeposits) / float64(flushes)
	}
	for i, name := range traced.verbNames {
		m["core."+name+"_p50_ms"] = float64(percentile(latencies(traced.Samples, i), 50)) / 1e6
		// The transfer verb's own core time is what the core.hop_mem_null_us
		// probe measures in isolation; the report sets the two side by side.
		if n := sums.VerbsByVerb[int32(i)]; name == "transfer" && n > 0 {
			m["core.transfer_self_us"] = float64(sums.CoreSelfByVerb[int32(i)]) / float64(n) / 1e3
		}
	}

	rb, ra := ref.before, ref.after
	m["go.allocs_per_op"] = ref.perOp(float64(ra.mallocs - rb.mallocs))
	m["go.alloc_kb_per_op"] = ref.perOp(float64(ra.allocBytes-rb.allocBytes) / 1024)
	m["go.gc_pause_ms_per_s"] = float64(ra.gcPauseNs-rb.gcPauseNs) / 1e6 / ref.Elapsed.Seconds()
	m["peak_rss_mb"] = rssMB
	if base := percentile(latencies(ref.Samples, -1), 50); base > 0 {
		m["trace_overhead"] = float64(percentile(latencies(traced.Samples, -1), 50)) / float64(base)
	}
	return m
}

// auditSummary is the part of load.Audit the benchmark gates on, plus the
// ghost figure as a diagnostic.
type auditSummary struct {
	Issued             int64    `json:"issued"`
	Deposited          int64    `json:"deposited"`
	Balances           int64    `json:"balances"`
	Ghost              int64    `json:"ghost"`
	DoubleDepositCases int64    `json:"double_deposit_cases"`
	ReplaysAccepted    int64    `json:"replays_accepted"`
	NoDoubleSpend      bool     `json:"no_double_spend"`
	DHTStaleReads      uint64   `json:"dht_stale_reads"`
	Failed             []string `json:"failed_checks,omitempty"`
}

// checkAudit applies the benchmark's ledger checks. Audit.Violations and a
// negative Ghost are deliberately not among them: at closed-loop rates the
// harness's own settlement bookkeeping over-counts minted value on
// micropay while the broker's ledger balances (see README).
func checkAudit(a load.Audit) auditSummary {
	s := auditSummary{
		Issued: a.Issued, Deposited: a.Deposited, Balances: a.Balances, Ghost: a.Ghost,
		DoubleDepositCases: a.DoubleDepositCases, ReplaysAccepted: a.DSAccepted,
		NoDoubleSpend: a.NoDoubleSpend, DHTStaleReads: a.DHTStaleReads,
	}
	fail := func(format string, args ...any) { s.Failed = append(s.Failed, fmt.Sprintf(format, args...)) }
	if a.Issued != a.Deposited || a.Deposited != a.Balances {
		fail("issued %d, deposited %d, balances %d differ", a.Issued, a.Deposited, a.Balances)
	}
	if a.DoubleDepositCases != 0 {
		fail("%d double-deposit fraud cases", a.DoubleDepositCases)
	}
	if a.DSAccepted != 0 {
		fail("%d deposit replays accepted", a.DSAccepted)
	}
	if !a.NoDoubleSpend {
		fail("no-double-spend invariant broken: %v", a.Violations)
	}
	if a.DHTStaleReads != 0 {
		fail("%d stale DHT quorum reads", a.DHTStaleReads)
	}
	return s
}

// maxSkipShare is the most ErrSkip outcomes a workload may have before its
// numbers stop describing the mix it declares.
const maxSkipShare = 0.05

// runResult is one run of one workload: the outcome accounting, the audit
// and whichever metric set the run was for.
type runResult struct {
	OK            bool
	Attempted     int64
	Succeeded     int64
	Failed        int64
	FailShare     float64
	RejectedShare float64
	SkipShare     float64
	Audit         auditSummary
	Metrics       map[string]float64
}

// account fills the outcome shares from a phase and sets OK.
func (r *runResult) account(p *phase, audit auditSummary) {
	r.Attempted = p.attempted()
	r.Succeeded = p.ok()
	r.Failed += p.Outcomes[outFailed]
	if r.Attempted > 0 {
		n := float64(r.Attempted)
		r.FailShare = float64(p.Outcomes[outFailed]) / n
		r.RejectedShare = float64(p.Outcomes[outRejected]) / n
		r.SkipShare = float64(p.Outcomes[outSkipped]) / n
	}
	r.Audit = audit
	r.OK = r.Succeeded > 0 && r.Failed == 0 && r.SkipShare < maxSkipShare && len(audit.Failed) == 0
}

// runEndToEnd is the untraced run: build the world setupRepeats times
// (setup_s is the median; the last world is the one measured), warm up,
// measure with benchClients clients, drain and audit.
func runEndToEnd(wl workload, seed int64, warm, measure time.Duration, outDir string) (runResult, error) {
	var w *world
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		var took time.Duration
		var err error
		if w, took, err = buildWorld(wl, seed, outDir, nil); err != nil {
			return runResult{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer w.close()
	p := runPhases(wl, w, benchClients, seed, warm, measure, nil)
	var res runResult
	res.account(&p, checkAudit(w.DrainAndAudit()))
	res.Metrics = endToEnd(&p, time.Duration(median(setups)*float64(time.Second)))
	return res, nil
}

// runTraced is the per-layer run, one client throughout: an untraced
// reference phase (trace_overhead's base, Go runtime numbers) on a plain
// world, then the traced phase on a world built with the decorators. The
// spans go to <outDir>/trace_<workload>.json.
func runTraced(wl workload, seed int64, warm, refFor, tracedFor time.Duration, outDir string) (runResult, error) {
	var res runResult

	w, _, err := buildWorld(wl, seed, outDir, nil)
	if err != nil {
		return res, err
	}
	ref := runPhases(wl, w, 1, seed, warm, refFor, nil)
	rss := peakRSSMB()
	refAudit := checkAudit(w.DrainAndAudit())
	w.close()
	res.Failed = ref.Outcomes[outFailed]

	tr := newTracer()
	if w, _, err = buildWorld(wl, seed, outDir, tr); err != nil {
		return res, err
	}
	defer w.close()
	traced := runPhases(wl, w, 1, seed, warm, tracedFor, tr)
	audit := checkAudit(w.DrainAndAudit())
	audit.Failed = append(audit.Failed, refAudit.Failed...)
	res.account(&traced, audit)

	spans := tr.take()
	res.Metrics = perLayer(&traced, sumSpans(spans), &ref, rss)
	if err := writeTrace(filepath.Join(outDir, "trace_"+wl.Name+".json"), wl.Name, traced.verbNames, spans); err != nil {
		return res, fmt.Errorf("bench: writing trace: %w", err)
	}
	return res, nil
}
