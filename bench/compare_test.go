package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// e2eMetric builds an end-to-end metric as -repeat would record it.
func e2eMetric(name string, runs ...float64) metric {
	m := metric{Name: name}
	for _, d := range endToEndDefs {
		if d.Name == name {
			m.Unit, m.Better = d.Unit, d.Better
		}
	}
	if len(runs) == 1 {
		m.Value = runs[0]
		return m
	}
	m.Q1, m.Value, m.Q3 = quartiles(runs)
	m.Runs = runs
	return m
}

func oneWorkload(failShare float64, ms ...metric) *artifact {
	return &artifact{Workloads: []workloadReport{{Name: "steady", OK: true, FailShare: failShare, EndToEnd: ms}}}
}

func TestJudgeVerdicts(t *testing.T) {
	ops := endToEndBounds["ops_per_s"]
	setup := endToEndBounds["setup_s"]
	within, beyond := 1+ops.Share/2, 1+ops.Share*2
	cases := []struct {
		name     string
		old, cur metric
		bound    boundDef
		want     string
	}{
		{"throughput within the bound", e2eMetric("ops_per_s", 2000), e2eMetric("ops_per_s", 2000/within), ops, verdictSame},
		{"throughput down beyond the bound", e2eMetric("ops_per_s", 2000), e2eMetric("ops_per_s", 2000/beyond), ops, verdictWorse},
		{"throughput up beyond the bound", e2eMetric("ops_per_s", 2000), e2eMetric("ops_per_s", 2000*beyond), ops, verdictBetter},
		{"latency up beyond the bound", e2eMetric("p50_ms", 0.8), e2eMetric("p50_ms", 0.8*beyond), endToEndBounds["p50_ms"], verdictWorse},
		{"latency down beyond the bound", e2eMetric("p50_ms", 0.8), e2eMetric("p50_ms", 0.8/beyond), endToEndBounds["p50_ms"], verdictBetter},
		{"spread wider than the bound", e2eMetric("ops_per_s", 1700, 2000, 2300), e2eMetric("ops_per_s", 1500, 1500, 1500), ops, verdictUnresolved},
		{"tight repeats, real regression", e2eMetric("ops_per_s", 1990, 2000, 2010), e2eMetric("ops_per_s", 990, 1000, 1010), ops, verdictWorse},
		{"setup doubled but under the absolute floor", e2eMetric("setup_s", 0.04), e2eMetric("setup_s", 0.08), setup, verdictSame},
		{"setup worse beyond share and floor", e2eMetric("setup_s", 1.0), e2eMetric("setup_s", 1.5), setup, verdictWorse},
		{"setup repeats spread wide, but under the floor", e2eMetric("setup_s", 0.03, 0.04, 0.06), e2eMetric("setup_s", 0.04, 0.05, 0.07), setup, verdictSame},
		{"setup repeats spread wider than share and floor", e2eMetric("setup_s", 1.0, 2.0, 3.0), e2eMetric("setup_s", 2.0), setup, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.old, c.cur, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if w, _ := judge(e2eMetric("ops_per_s", 2000), e2eMetric("ops_per_s", 1800), ops); w != 0.1 {
		t.Errorf("a throughput drop of a tenth must read as worsening 0.1, got %v", w)
	}
}

func TestCompareArtifactsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, a *artifact) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, a); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", oneWorkload(0, e2eMetric("ops_per_s", 2000, 2010, 2020), e2eMetric("p99_ms", 4.5, 4.6, 4.7)))

	var out bytes.Buffer
	same := write("same.json", oneWorkload(0, e2eMetric("ops_per_s", 2005, 2015, 2030), e2eMetric("p99_ms", 4.4, 4.6, 4.8)))
	if pass, err := runCompare(&out, base, same); err != nil || !pass {
		t.Fatalf("same code must pass: pass=%v err=%v\n%s", pass, err, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) || strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("unexpected verdict:\n%s", out.String())
	}

	out.Reset()
	slow := write("slow.json", oneWorkload(0, e2eMetric("ops_per_s", 1000, 1010, 1020), e2eMetric("p99_ms", 4.5, 4.6, 4.7)))
	if pass, _ := runCompare(&out, base, slow); pass {
		t.Fatalf("a halved throughput must fail:\n%s", out.String())
	}

	out.Reset()
	noisy := write("noisy.json", oneWorkload(0, e2eMetric("ops_per_s", 1000, 2000, 3000), e2eMetric("p99_ms", 4.5, 4.6, 4.7)))
	if pass, _ := runCompare(&out, base, noisy); !pass || !strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("a spread wider than the bound is unresolved, not worse:\n%s", out.String())
	}

	out.Reset()
	failing := write("failing.json", oneWorkload(0.001, e2eMetric("ops_per_s", 2000, 2010, 2020), e2eMetric("p99_ms", 4.5, 4.6, 4.7)))
	if pass, _ := runCompare(&out, base, failing); pass || !strings.Contains(out.String(), "fail_share rose") {
		t.Fatalf("a rise in fail_share must fail:\n%s", out.String())
	}
}
