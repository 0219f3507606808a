package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func quickOptions(t *testing.T) options {
	opts := options{workload: "steady", seed: 1, repeat: 1, outDir: t.TempDir()}
	opts.quick()
	return opts
}

// The -quick pass over steady: real world, real transport, one-second
// phases. It must end ok, with every declared metric present and the
// layers the workload uses non-zero.
func TestQuickSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("builds live worlds")
	}
	opts := quickOptions(t)
	var out bytes.Buffer
	a, err := runSuite(&out, opts)
	if err != nil {
		t.Fatalf("quick steady: %v\n%s", err, out.String())
	}
	if len(a.Workloads) != 1 || !a.Workloads[0].OK || a.Workloads[0].FailShare != 0 {
		t.Fatalf("workloads = %+v", a.Workloads)
	}
	wl := a.Workloads[0]
	for _, d := range endToEndDefs {
		if m, ok := findMetric(wl.EndToEnd, d.Name); !ok || m.Value <= 0 || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %s = %+v", d.Name, m)
		}
	}
	if len(wl.PerLayer) != len(perLayerDefs()) {
		t.Fatalf("%d per-layer metrics, want %d", len(wl.PerLayer), len(perLayerDefs()))
	}
	for _, name := range []string{"sig.verifies_per_op", "sig.busy_us_per_op", "bus.calls_per_op", "bus.bytes_per_op",
		"bus.transit_us_per_op", "core.broker_calls_per_op", "core.self_us_per_op", "core.transfer_self_us",
		"core.transfer_p50_ms", "go.allocs_per_op", "peak_rss_mb", "trace_overhead"} {
		if m, _ := findMetric(wl.PerLayer, name); m.Value <= 0 {
			t.Errorf("per-layer metric %s = %v on steady", name, m.Value)
		}
	}
	for _, name := range []string{"wal.fsyncs_per_op", "dht.calls_per_op", "dht.serve_us_per_op"} {
		if m, _ := findMetric(wl.PerLayer, name); m.Value != 0 {
			t.Errorf("steady has no journal and no DHT, yet %s = %v", name, m.Value)
		}
	}
	for _, f := range []string{"BENCH.json", "trace_steady.json"} {
		if _, err := os.Stat(filepath.Join(opts.outDir, f)); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}
	back, err := readArtifact(filepath.Join(opts.outDir, "BENCH.json"))
	if err != nil || len(back.Workloads) != 1 || back.Config.Clients != benchClients || back.Env.NProc == 0 {
		t.Fatalf("BENCH.json does not read back: %v %+v", err, back)
	}
}

// The one-workload mode's last stdout line is the harness contract: exactly
// the keys correct, attempted, failed and metrics, the metrics being the
// declared set with units. broker-wal also covers the journaled world and
// its temp dir, which must be gone afterwards.
func TestRunOneContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds live worlds")
	}
	for _, traced := range []bool{false, true} {
		opts := quickOptions(t)
		opts.workload = "broker-wal"
		var out bytes.Buffer
		if err := runOne(&out, opts, traced); err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Fatalf("traced=%v: result line %s", traced, lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEndDefs
		if traced {
			defs = perLayerDefs()
		}
		if len(metrics) != len(defs) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s = %+v", traced, d.Name, m)
			}
		}
		if traced && *metrics["wal.fsyncs_per_op"].Value <= 0 {
			t.Error("broker-wal traced run saw no fsyncs")
		}
		if left, _ := filepath.Glob(filepath.Join(opts.outDir, "wal-*")); len(left) != 0 {
			t.Errorf("journal temp dirs left behind: %v", left)
		}
	}
}

func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of fixed-iteration probes")
	}
	dir := t.TempDir()
	ms, err := runProbes(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sig.sign_us", "sig.verify_cold_us", "sig.verify_warm_ns", "wire.encode_ns", "wire.decode_ns",
		"wire.allocs_per_frame", "tcpbus.echo_rtt_us", "store.compute_ns", "store.durable_set_us", "wal.append_never_us",
		"wal.append_always_us", "dht.quorum_put_us", "dht.quorum_get_us", "dht.lease_hit_ns", "core.hop_mem_null_us"} {
		if m, ok := findMetric(ms, name); !ok || m.Value <= 0 {
			t.Errorf("probe %s = %+v", name, m)
		}
	}
	cold, _ := findMetric(ms, "sig.verify_cold_us")
	warm, _ := findMetric(ms, "sig.verify_warm_ns")
	if warm.Value/1000 >= cold.Value/3 {
		t.Errorf("memoized verify (%v ns) is not well under a cold one (%v us)", warm.Value, cold.Value)
	}
	quorum, _ := findMetric(ms, "dht.quorum_get_us")
	lease, _ := findMetric(ms, "dht.lease_hit_ns")
	if lease.Value/1000 >= quorum.Value/3 {
		t.Errorf("lease hit (%v ns) is not well under a quorum read (%v us)", lease.Value, quorum.Value)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("probe temp dirs left behind: %v", left)
	}
}

// BENCHMARK.json at the repository root repeats what this package
// declares; the two must not drift.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var b struct {
		RunSeconds int    `json:"run_seconds"`
		Workloads  []decl `json:"workloads"`
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != int(defaultMeasure/time.Second) {
		t.Errorf("run_seconds = %d, the full run measures %v", b.RunSeconds, defaultMeasure)
	}
	wls := workloads()
	if len(b.Workloads) != len(wls) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(wls))
	}
	for i, wl := range wls {
		if b.Workloads[i].Name != wl.Name || b.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %+v, defined as %q: %q", i, b.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", wl.Name, len(wl.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound == nil ||
			*got.Bound != endToEndBounds[d.Name].Share {
			t.Errorf("end-to-end %d: %+v, defined as %+v bound %v", i, got, d, endToEndBounds[d.Name].Share)
		}
	}
	pl := perLayerDefs()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(pl))
	}
	for i, d := range pl {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != nil {
			t.Errorf("per-layer %d: %+v, defined as %+v", i, got, d)
		}
	}
}
