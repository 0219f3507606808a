package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// envInfo describes the machine and toolchain. It sits outside the compared
// section of an artifact: two runs are compared on their workloads alone.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
}

func readEnv() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// configInfo echoes the load shape, the phase lengths and the bounds the
// run was made and judged with.
type configInfo struct {
	Clients      int                 `json:"clients"`
	TraceClients int                 `json:"trace_clients"`
	Actors       int                 `json:"actors"`
	Seed         int64               `json:"seed"`
	Repeat       int                 `json:"repeat"`
	SetupRepeats int                 `json:"setup_repeats"`
	WarmupS      float64             `json:"warmup_s"`
	MeasureS     float64             `json:"measure_s"`
	TraceRefS    float64             `json:"trace_reference_s"`
	TracedS      float64             `json:"traced_s"`
	Bounds       map[string]boundDef `json:"bounds"`
}

// workloadReport is one workload's section of the artifact.
type workloadReport struct {
	Name          string  `json:"name"`
	Why           string  `json:"why"`
	OK            bool    `json:"ok"`
	Attempted     int64   `json:"attempted"`
	Succeeded     int64   `json:"succeeded"`
	FailShare     float64 `json:"fail_share"`
	RejectedShare float64 `json:"rejected_share"`
	SkipShare     float64 `json:"skip_share"`
	// Audit is the last end-to-end run's; TraceAudit the traced run's.
	Audit      auditSummary  `json:"audit"`
	TraceAudit *auditSummary `json:"trace_audit,omitempty"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer,omitempty"`
	// Attribution says whether the traced transfer verb's own core time
	// agrees with the isolated core.hop_mem_null_us probe.
	Attribution string `json:"attribution,omitempty"`
}

// artifact is bench-out/BENCH.json.
type artifact struct {
	Env       envInfo          `json:"env"`
	Config    configInfo       `json:"config"`
	Workloads []workloadReport `json:"workloads"`
	Probes    []metric         `json:"probes,omitempty"`
}

// fold turns the repeats' values of each declared metric into one metric:
// the median, plus quartiles and the raw runs when there was more than one.
func fold(defs []metricDef, runs []map[string]float64) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m := metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r[d.Name])
		}
		if len(vals) == 1 {
			m.Value = vals[0]
		} else if len(vals) > 1 {
			m.Q1, m.Value, m.Q3 = quartiles(vals)
			m.Runs = vals
		}
		out = append(out, m)
	}
	return out
}

// attribution compares the traced transfer verb's core self time with the
// isolated protocol-logic probe. Within a quarter of each other the
// residual is explained; otherwise it is labelled unresolved.
func attribution(perLayer, probes []metric) string {
	self, okSelf := findMetric(perLayer, "core.transfer_self_us")
	probe, okProbe := findMetric(probes, "core.hop_mem_null_us")
	if !okSelf || !okProbe || self.Value == 0 || probe.Value == 0 {
		return ""
	}
	verdict := "unresolved"
	if r := self.Value / probe.Value; r >= 0.75 && r <= 1.25 {
		verdict = "within 25% of probe"
	}
	return fmt.Sprintf("%s (core.transfer_self_us %.1f us vs core.hop_mem_null_us %.1f us)", verdict, self.Value, probe.Value)
}

func findMetric(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printArtifact writes the human-readable final block: every metric by
// name with its unit and direction, per workload.
func printArtifact(w io.Writer, a *artifact) {
	fmt.Fprintf(w, "\n== whopay bench ==\n")
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d cpu=%q %s\n", a.Env.NProc, a.Env.GOMAXPROCS, a.Env.CPU, a.Env.Go)
	c := a.Config
	if len(a.Workloads) > 0 {
		fmt.Fprintf(w, "load: closed loop, clients=%d (traced: %d), actors=%d, seed=%d, repeat=%d\n",
			c.Clients, c.TraceClients, c.Actors, c.Seed, c.Repeat)
		fmt.Fprintf(w, "phases: setup x%d, warm-up %gs, measured %gs; traced run: reference %gs + traced %gs\n",
			c.SetupRepeats, c.WarmupS, c.MeasureS, c.TraceRefS, c.TracedS)
	}
	for _, wl := range a.Workloads {
		fmt.Fprintf(w, "\n-- %s: ok=%v --\n   %s\n", wl.Name, wl.OK, wl.Why)
		fmt.Fprintf(w, "   attempted=%d succeeded=%d fail_share=%.4f rejected_share=%.4f skip_share=%.4f\n",
			wl.Attempted, wl.Succeeded, wl.FailShare, wl.RejectedShare, wl.SkipShare)
		au := wl.Audit
		fmt.Fprintf(w, "   audit: issued=%d deposited=%d balances=%d ghost=%d double_deposit_cases=%d replays_accepted=%d no_double_spend=%v dht_stale_reads=%d\n",
			au.Issued, au.Deposited, au.Balances, au.Ghost, au.DoubleDepositCases, au.ReplaysAccepted, au.NoDoubleSpend, au.DHTStaleReads)
		for _, f := range append(append([]string(nil), au.Failed...), traceFailed(wl.TraceAudit)...) {
			fmt.Fprintf(w, "   FAILED CHECK: %s\n", f)
		}
		fmt.Fprintf(w, "   end to end (untraced, %d clients):\n", c.Clients)
		for _, m := range wl.EndToEnd {
			bound := c.Bounds[m.Name]
			fmt.Fprintf(w, "     %-26s %12.4f %-6s better=%-6s bound=%g%%%s\n",
				m.Name, m.Value, m.Unit, m.Better, bound.Share*100, quartileNote(m))
		}
		if len(wl.PerLayer) > 0 {
			fmt.Fprintf(w, "   per layer (traced, %d client, per successful verb):\n", c.TraceClients)
			for _, m := range wl.PerLayer {
				fmt.Fprintf(w, "     %-26s %12.4f %-6s better=%s\n", m.Name, m.Value, m.Unit, m.Better)
			}
		}
		if wl.Attribution != "" {
			fmt.Fprintf(w, "   core attribution: %s\n", wl.Attribution)
		}
	}
	if len(a.Probes) > 0 {
		fmt.Fprintf(w, "\n-- layer probes (isolated, median of %d rounds) --\n", probeRounds)
		for _, m := range a.Probes {
			fmt.Fprintf(w, "     %-26s %12.4f %-6s better=%s\n", m.Name, m.Value, m.Unit, m.Better)
		}
	}
}

func traceFailed(a *auditSummary) []string {
	if a == nil {
		return nil
	}
	return a.Failed
}

func quartileNote(m metric) string {
	if len(m.Runs) < 2 || m.Value == 0 {
		return ""
	}
	return fmt.Sprintf("  q1=%.4f q3=%.4f spread=%.1f%%", m.Q1, m.Q3, (m.Q3-m.Q1)/m.Value*100)
}
