package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"whopay/internal/dht/replica"
)

// ReportSchema versions the BENCH_load_*.json layout. Bump on breaking
// changes so trajectory diffing across PRs can tell layouts apart.
const ReportSchema = "whopay/bench-load/v1"

// ConfigEcho is the run's configuration, echoed into the artifact so a
// trajectory diff can tell a code regression from a knob change. No git
// revision and no timestamps — artifacts must be byte-comparable across
// reruns of the same tree.
type ConfigEcho struct {
	Actors      int     `json:"actors"`
	WarmCoins   int     `json:"warm_coins"`
	HotCoins    int     `json:"hot_coins,omitempty"`
	Detection   bool    `json:"detection"`
	DHTNodes    int     `json:"dht_nodes,omitempty"`
	Faults      bool    `json:"faults"`
	Seed        int64   `json:"seed"`
	Rate        float64 `json:"rate_ops_per_sec"`
	Ops         int     `json:"ops,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	Scheme      string  `json:"scheme"`
	WAL         bool    `json:"wal"`
	Fsync       string  `json:"fsync,omitempty"`
	Channels    int     `json:"channels,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	LeaseTTLMs  float64 `json:"lease_ttl_ms,omitempty"`
	// DHTNWR echoes the DHT replication quorum as "N/W/R"; empty when the
	// run had no DHT.
	DHTNWR     string `json:"dht_nwr,omitempty"`
	DHTPersist bool   `json:"dht_persist,omitempty"`
}

// LatencyMs is the percentile summary in milliseconds, computed from
// intended start times — no coordinated omission.
type LatencyMs struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// ErrorReport splits failures by class; ProtocolUnexpected counts the
// protocol rejections outside the scenario's expected set — the number a
// strict gate fails on.
type ErrorReport struct {
	Timeouts           int64            `json:"timeouts"`
	Transport          int64            `json:"transport"`
	Protocol           int64            `json:"protocol"`
	ProtocolUnexpected int64            `json:"protocol_unexpected"`
	Other              int64            `json:"other"`
	Rejections         map[string]int64 `json:"rejections,omitempty"`
}

// Report is one scenario run's machine-readable artifact.
type Report struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Summary  string `json:"summary"`

	Config      ConfigEcho `json:"config"`
	Interrupted bool       `json:"interrupted,omitempty"`

	Scheduled    int     `json:"scheduled"`
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	SkippedOps   int64   `json:"skipped_ops,omitempty"`
	Dropped      int64   `json:"dropped,omitempty"`
	TargetRate   float64 `json:"target_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	ElapsedSec   float64 `json:"elapsed_sec"`

	LatencyMs LatencyMs   `json:"latency_ms"`
	Errors    ErrorReport `json:"errors"`

	EventsFired []string           `json:"events_fired,omitempty"`
	Obs         map[string]float64 `json:"obs,omitempty"`

	Channels *ChannelStats  `json:"channels,omitempty"`
	Failover *FailoverStats `json:"failover,omitempty"`
	DHT      *DHTStats      `json:"dht,omitempty"`

	Audit Audit `json:"audit"`
}

// FailoverStats is the broker-failover scenario's extract: how many
// leaders were killed, how long each shard took to serve again (wall time
// from crash to a promoted follower answering — the lease TTL is the
// floor), and how much client traffic was rerouted by redirect hints.
type FailoverStats struct {
	LeadersKilled int       `json:"leaders_killed"`
	RecoverMs     []float64 `json:"recover_ms"`
	RecoverMsMax  float64   `json:"recover_ms_max"`
	PromoteMsMean float64   `json:"promote_ms_mean,omitempty"`
	Redirects     int64     `json:"redirects"`
	RedirectRate  float64   `json:"redirect_rate"` // redirects per completed op
}

// DHTStats is the replicated-DHT extract (DESIGN.md §14): node kills and
// recovery times, quorum-write tallies and anti-entropy work summed over
// the cluster, and the client-side lease cache's hit rate — the number the
// hot-coin read path is bought with. StaleReads must stay zero.
type DHTStats struct {
	NodesKilled   int64     `json:"nodes_killed"`
	RecoverMs     []float64 `json:"recover_ms,omitempty"`
	RecoverMsMax  float64   `json:"recover_ms_max,omitempty"`
	QuorumWrites  float64   `json:"quorum_writes"`
	QuorumFails   float64   `json:"quorum_write_failures"`
	SweepRounds   float64   `json:"sweep_rounds"`
	SweepRepairs  float64   `json:"sweep_repairs"`
	LeaseHits     uint64    `json:"lease_hits"`
	LeaseMisses   uint64    `json:"lease_misses"`
	LeaseHitRate  float64   `json:"lease_hit_rate"`
	StaleReads    uint64    `json:"stale_reads"`
	ReadsRepaired uint64    `json:"reads_repaired"`
}

// ChannelStats summarizes micropay-channel activity: windows opened,
// paywords streamed, windows recycled by chain exhaustion, and the
// settlements that converted window balances into WhoPay coins.
type ChannelStats struct {
	Opened       int64 `json:"opened"`
	Pays         int64 `json:"pays"`
	Recycled     int64 `json:"recycled"`
	Settlements  int64 `json:"settlements"`
	SettledValue int64 `json:"settled_value"`
}

// obsExports is the registry slice a report carries: transport health and
// broker WAL cost, the counters the tentpole's error accounting leans on.
// WAL metrics are labeled by entity; the broker is the journaling one.
var obsExports = []struct {
	name   string
	labels map[string]string
}{
	{"whopay_tcpbus_calls_total", nil},
	{"whopay_tcpbus_dials_total", nil},
	{"whopay_tcpbus_dial_errors_total", nil},
	{"whopay_tcpbus_reconnects_total", nil},
	{"whopay_tcpbus_timeouts_total", nil},
	{"whopay_tcpbus_open_conns", nil},
	{"whopay_tcpbus_outbound_conns", nil},
	{"whopay_tcpbus_frames_tx_total", nil},
	{"whopay_tcpbus_frames_rx_total", nil},
	{"whopay_tcpbus_bytes_tx_total", nil},
	{"whopay_tcpbus_bytes_rx_total", nil},
	{"whopay_wal_fsync_seconds", map[string]string{"entity": "broker"}},
	{"whopay_wal_errors_total", map[string]string{"entity": "broker"}},
	{"whopay_broker_deposit_batch_flushes", nil},
}

// BuildReport assembles the artifact for one finished (or interrupted)
// run.
func BuildReport(r *Run, res Result, audit Audit) Report {
	w, sc, rc := r.W, r.Sc, r.Cfg
	q := res.Hist.Summary()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	rep := Report{
		Schema:   ReportSchema,
		Scenario: sc.Name,
		Summary:  sc.Summary,
		Config: ConfigEcho{
			Actors:      w.cfg.Actors,
			WarmCoins:   w.cfg.WarmCoins,
			HotCoins:    w.cfg.HotCoins,
			Detection:   w.cfg.Detection,
			DHTNodes:    w.cfg.DHTNodes,
			Faults:      w.cfg.Faults,
			Seed:        rc.Seed,
			Rate:        rc.Rate,
			Ops:         rc.Ops,
			DurationSec: rc.Duration.Seconds(),
			Scheme:      w.cfg.Scheme.Name(),
			WAL:         w.cfg.WALDir != "",
			Fsync:       walPolicyName(w),
			Channels:    w.cfg.Channels,
			Shards:      w.cfg.Shards,
			Replicas:    w.cfg.Replicas,
			LeaseTTLMs:  ms(w.cfg.LeaseTTL),
			DHTNWR:      dhtNWR(w),
			DHTPersist:  w.cfg.DHTPersist,
		},
		Interrupted: res.Stopped,
		Scheduled:   res.Scheduled,
		Completed:   res.Completed,
		Failed:      res.Failed,
		SkippedOps:  res.Skipped,
		Dropped:     res.Dropped,
		TargetRate:  rc.Rate,
		ElapsedSec:  res.Elapsed.Seconds(),
		EventsFired: r.EventsFired(),
		Audit:       audit,
	}
	if res.Elapsed > 0 {
		rep.AchievedRate = float64(res.Completed) / res.Elapsed.Seconds()
	}
	rep.LatencyMs = LatencyMs{
		Count: q.Count,
		P50:   ms(q.P50),
		P90:   ms(q.P90),
		P99:   ms(q.P99),
		P999:  ms(q.P999),
		Max:   ms(q.Max),
		Mean:  ms(q.Mean),
	}
	rep.Errors = ErrorReport{
		Timeouts:   res.Errors.Timeouts,
		Transport:  res.Errors.Transport,
		Protocol:   res.Errors.Protocol,
		Other:      res.Errors.Other,
		Rejections: res.Errors.Rejections,
	}
	for code, n := range res.Errors.Rejections {
		if !sc.ExpectsRejection(code) {
			rep.Errors.ProtocolUnexpected += n
		}
	}
	rep.Obs = make(map[string]float64)
	for _, exp := range obsExports {
		if v, ok := w.Reg.Value(exp.name, exp.labels); ok {
			rep.Obs[exp.name] = v
		}
	}
	// Deposit-batch occupancy: the histogram rides the duration API with
	// occupancy n recorded as n seconds, so Sum() is total deposits
	// flushed and Sum/Count is the mean batch size — the amortization
	// actually achieved under this load.
	if h := w.Reg.Histogram("whopay_broker_deposit_batch_occupancy", nil, nil); h.Count() > 0 {
		rep.Obs["whopay_broker_deposit_batch_deposits"] = h.Sum()
		rep.Obs["whopay_broker_deposit_batch_occupancy_mean"] = h.Sum() / float64(h.Count())
	}
	if opened := w.channelsOpened.Load(); opened > 0 {
		rep.Channels = &ChannelStats{
			Opened:       opened,
			Pays:         w.channelPays.Load(),
			Recycled:     w.channelRecycled.Load(),
			Settlements:  w.channelSettles.Load(),
			SettledValue: w.channelSettled.Load(),
		}
	}
	if w.Fed != nil {
		fo := &FailoverStats{Redirects: w.Redirects()}
		for _, d := range w.FailoverRecoveries() {
			v := ms(d)
			fo.RecoverMs = append(fo.RecoverMs, v)
			if v > fo.RecoverMsMax {
				fo.RecoverMsMax = v
			}
		}
		fo.LeadersKilled = len(fo.RecoverMs)
		if res.Completed > 0 {
			fo.RedirectRate = float64(fo.Redirects) / float64(res.Completed)
		}
		// Promotion latency (lease win → serving broker) from the cluster
		// histogram, summed across shards.
		var sum float64
		var count int64
		for s := 0; s < w.Fed.Shards(); s++ {
			lbl := map[string]string{"shard": fmt.Sprintf("%d", s)}
			h := w.Reg.Histogram("whopay_fed_failover_seconds", lbl, nil)
			sum += h.Sum()
			count += h.Count()
		}
		if count > 0 {
			fo.PromoteMsMean = sum / float64(count) * 1000
		}
		for s := 0; s < w.Fed.Shards(); s++ {
			lbl := map[string]string{"shard": fmt.Sprintf("%d", s)}
			if v, ok := w.Reg.Value("whopay_fed_failovers_total", lbl); ok {
				rep.Obs["whopay_fed_failovers_total"] += v
			}
		}
		rep.Failover = fo
	}
	if w.Cluster != nil {
		kills, recoveries := w.DHTKillStats()
		ds := &DHTStats{NodesKilled: kills}
		for _, d := range recoveries {
			v := ms(d)
			ds.RecoverMs = append(ds.RecoverMs, v)
			if v > ds.RecoverMsMax {
				ds.RecoverMsMax = v
			}
		}
		// Per-node counters are labeled by slot entity; sum the cluster.
		for i := range w.Cluster.Nodes() {
			lbl := map[string]string{"entity": fmt.Sprintf("dht-%d", i)}
			for name, dst := range map[string]*float64{
				"whopay_dht_quorum_writes_total":         &ds.QuorumWrites,
				"whopay_dht_quorum_write_failures_total": &ds.QuorumFails,
				"whopay_dht_sweep_rounds_total":          &ds.SweepRounds,
				"whopay_dht_sweep_repairs_total":         &ds.SweepRepairs,
			} {
				if v, ok := w.Reg.Value(name, lbl); ok {
					*dst += v
				}
			}
		}
		ds.LeaseHits, ds.LeaseMisses, ds.StaleReads, ds.ReadsRepaired = w.DHTLeaseStats()
		if total := ds.LeaseHits + ds.LeaseMisses; total > 0 {
			ds.LeaseHitRate = float64(ds.LeaseHits) / float64(total)
		}
		rep.DHT = ds
	}
	return rep
}

// dhtNWR renders the replication quorum ("3/2/2"), empty without a DHT.
func dhtNWR(w *World) string {
	if w.Cluster == nil {
		return ""
	}
	var r replica.Config
	if w.cfg.DHTReplication != nil {
		r = *w.cfg.DHTReplication
	}
	n := r.WithDefaults(len(w.Cluster.Nodes()))
	return fmt.Sprintf("%d/%d/%d", n.N, n.W, n.R)
}

// walPolicyName renders the world's fsync policy, empty when no WAL.
func walPolicyName(w *World) string {
	if w.cfg.WALDir == "" {
		return ""
	}
	return w.cfg.Fsync.String()
}

// ReportFileName names the artifact: BENCH_load_<scenario>.json, with a
// _wal suffix for the journaling variant so both variants of one scenario
// can live side by side. Scenario-name hyphens become underscores so the
// artifact basename splits cleanly on "_".
func ReportFileName(scenario string, wal bool) string {
	scenario = strings.ReplaceAll(scenario, "-", "_")
	if wal {
		return "BENCH_load_" + scenario + "_wal.json"
	}
	return "BENCH_load_" + scenario + ".json"
}

// WriteReport writes the artifact under dir (created on demand).
func WriteReport(dir string, rep Report) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("load: report dir: %w", err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("load: encoding report: %w", err)
	}
	path := filepath.Join(dir, ReportFileName(rep.Scenario, rep.Config.WAL))
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("load: writing report: %w", err)
	}
	return path, nil
}
