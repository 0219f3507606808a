package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// compareRow is one line of -compare's table.
type compareRow struct {
	Workload string
	Metric   string
	Unit     string
	Old, New float64
	// Worsening is the change as a share of Old, positive when New is
	// worse, whatever the metric's direction.
	Worsening float64
	Bound     float64
	Verdict   string
}

// allowed is the change the bound tolerates on a metric whose value is
// base: its share of base, or the absolute floor when that is larger.
func (b boundDef) allowed(base float64) float64 {
	return math.Max(b.Share*math.Abs(base), b.Floor)
}

// iqr is the metric's interquartile range over its repeats, 0 for one run.
func iqr(m metric) float64 {
	if len(m.Runs) < 2 {
		return 0
	}
	return m.Q3 - m.Q1
}

// judge compares one metric across two artifacts against its bound. A side
// whose own repeats spread wider than the bound allows makes the pair
// unresolved: the medians cannot then tell a change from noise.
func judge(old, cur metric, b boundDef) (worsening float64, verdict string) {
	worse := cur.Value - old.Value // in the metric's unit, positive when worse
	if old.Better == "higher" {
		worse = -worse
	}
	if old.Value != 0 {
		worsening = worse / math.Abs(old.Value)
	}
	switch {
	case iqr(old) > b.allowed(old.Value) || iqr(cur) > b.allowed(cur.Value):
		return worsening, verdictUnresolved
	case worse > b.allowed(old.Value):
		return worsening, verdictWorse
	case -worse > b.allowed(old.Value):
		return worsening, verdictBetter
	}
	return worsening, verdictSame
}

// compareArtifacts builds one row per (workload, end-to-end metric) present
// in both artifacts and lists the workloads whose fail_share rose.
func compareArtifacts(old, cur *artifact) (rows []compareRow, failRose []string) {
	for _, nw := range cur.Workloads {
		var ow *workloadReport
		for i := range old.Workloads {
			if old.Workloads[i].Name == nw.Name {
				ow = &old.Workloads[i]
			}
		}
		if ow == nil {
			continue
		}
		if nw.FailShare > ow.FailShare {
			failRose = append(failRose, fmt.Sprintf("%s: fail_share %.4f -> %.4f", nw.Name, ow.FailShare, nw.FailShare))
		}
		for _, nm := range nw.EndToEnd {
			om, ok := findMetric(ow.EndToEnd, nm.Name)
			if !ok {
				continue
			}
			b := endToEndBounds[nm.Name]
			w, v := judge(om, nm, b)
			rows = append(rows, compareRow{
				Workload: nw.Name, Metric: nm.Name, Unit: nm.Unit,
				Old: om.Value, New: nm.Value, Worsening: w, Bound: b.Share, Verdict: v,
			})
		}
	}
	return rows, failRose
}

func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// runCompare prints the table (delta is the change as a share of old,
// positive when new is worse) and reports whether the new artifact passes:
// no metric worse, no rise in fail_share.
func runCompare(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readArtifact(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readArtifact(newPath)
	if err != nil {
		return false, err
	}
	rows, failRose := compareArtifacts(old, cur)
	fmt.Fprintf(w, "%-11s %-14s %12s %12s %-6s %9s %7s  %s\n",
		"workload", "metric", "old", "new", "unit", "delta", "bound", "verdict")
	pass := len(failRose) == 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-14s %12.4f %12.4f %-6s %+8.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, r.Worsening*100, r.Bound*100, r.Verdict)
		if r.Verdict == verdictWorse {
			pass = false
		}
	}
	for _, f := range failRose {
		fmt.Fprintf(w, "fail_share rose: %s\n", f)
	}
	return pass, nil
}
