package main

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

var (
	errSkip   = errors.New("skip")
	errReject = errors.New("reject")
	errBoom   = errors.New("boom")
)

func fakeClassify(err error) outcome {
	switch err {
	case errSkip:
		return outSkipped
	case errReject:
		return outRejected
	}
	return outFailed
}

// fakeVerbs returns three verbs that count their calls; "flaky" cycles
// through ok, skip, reject and fail.
func fakeVerbs(calls *[3]atomic.Int64) []verb {
	return []verb{
		{Name: "a", Weight: 5, Do: func(rng *rand.Rand) error { calls[0].Add(1); rng.Int63(); return nil }},
		{Name: "b", Weight: 3, Do: func(*rand.Rand) error { calls[1].Add(1); return nil }},
		{Name: "flaky", Weight: 2, Do: func(*rand.Rand) error {
			switch calls[2].Add(1) % 4 {
			case 1:
				return errSkip
			case 2:
				return errReject
			case 3:
				return errBoom
			}
			return nil
		}},
	}
}

func TestLoopExactCountsAndAccounting(t *testing.T) {
	var calls [3]atomic.Int64
	l := newLoop(loopConfig{Clients: 2, Seed: 7, Verbs: fakeVerbs(&calls), Classify: fakeClassify})
	const perClient = 500
	res := l.runPhase(time.Minute, perClient)

	if got := res.attempted(); got != 2*perClient {
		t.Fatalf("attempted = %d, want %d", got, 2*perClient)
	}
	if got := calls[0].Load() + calls[1].Load() + calls[2].Load(); got != 2*perClient {
		t.Fatalf("verb calls = %d, want %d", got, 2*perClient)
	}
	flaky := calls[2].Load()
	want := [numOutcomes]int64{}
	want[outSkipped] = (flaky + 3) / 4
	want[outRejected] = (flaky + 2) / 4
	want[outFailed] = (flaky + 1) / 4
	want[outOK] = 2*perClient - want[outSkipped] - want[outRejected] - want[outFailed]
	if res.Outcomes != want {
		t.Fatalf("outcomes = %v, want %v (flaky called %d times)", res.Outcomes, want, flaky)
	}
	if int64(len(res.Samples)) != want[outOK] {
		t.Fatalf("samples = %d, want one per success (%d)", len(res.Samples), want[outOK])
	}

	p := phase{phaseResult: res}
	var r runResult
	r.account(&p, auditSummary{})
	n := float64(2 * perClient)
	if r.FailShare != float64(want[outFailed])/n || r.RejectedShare != float64(want[outRejected])/n ||
		r.SkipShare != float64(want[outSkipped])/n {
		t.Fatalf("shares = %v/%v/%v", r.FailShare, r.RejectedShare, r.SkipShare)
	}
	if r.OK {
		t.Fatal("a run with failed verbs must not be ok")
	}
}

func TestAccountGates(t *testing.T) {
	mk := func(ok, skipped, rejected int64) phase {
		var p phase
		p.Outcomes[outOK], p.Outcomes[outSkipped], p.Outcomes[outRejected] = ok, skipped, rejected
		return p
	}
	var r runResult
	p := mk(90, 4, 6)
	if r.account(&p, auditSummary{}); !r.OK {
		t.Fatal("expected rejections and a 4% skip share must pass")
	}
	r = runResult{}
	p = mk(94, 6, 0)
	if r.account(&p, auditSummary{}); r.OK {
		t.Fatal("a 6% skip share must fail")
	}
	r = runResult{}
	p = mk(100, 0, 0)
	if r.account(&p, auditSummary{Failed: []string{"ledger"}}); r.OK {
		t.Fatal("a failed audit check must fail the run")
	}
}

// The verb sequence a client issues depends on the seed and its index
// alone — not on timing, and not on how much randomness the verbs draw.
func TestLoopSameSeedSameSequence(t *testing.T) {
	seqs := func(seed int64, greedy bool) [][]int {
		var calls [3]atomic.Int64
		vs := fakeVerbs(&calls)
		if greedy {
			inner := vs[1].Do
			vs[1].Do = func(rng *rand.Rand) error { rng.Int63(); rng.Int63(); return inner(rng) }
		}
		l := newLoop(loopConfig{Clients: 3, Seed: seed, Verbs: vs, Classify: fakeClassify})
		l.keepSeq = true
		l.runPhase(time.Minute, 200)
		out := make([][]int, len(l.clients))
		for i, c := range l.clients {
			out[i] = append([]int(nil), c.seq...)
		}
		return out
	}
	a, b, greedy, other := seqs(11, false), seqs(11, false), seqs(11, true), seqs(12, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different verb sequences")
	}
	if !reflect.DeepEqual(a, greedy) {
		t.Fatal("the verb sequence changed with the verbs' own use of randomness")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds gave the same verb sequences")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("two clients drew the same sequence")
	}
}

func TestLoopContinuesStreamsAcrossPhases(t *testing.T) {
	run := func(split bool) []int {
		var calls [3]atomic.Int64
		l := newLoop(loopConfig{Clients: 1, Seed: 3, Verbs: fakeVerbs(&calls), Classify: fakeClassify})
		l.keepSeq = true
		if !split {
			l.runPhase(time.Minute, 100)
			return append([]int(nil), l.clients[0].seq...)
		}
		l.runPhase(time.Minute, 40)
		first := append([]int(nil), l.clients[0].seq...)
		l.runPhase(time.Minute, 60)
		return append(first, l.clients[0].seq...)
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("the measured phase must continue the warm-up's stream, not replay it")
	}
}

func TestLoopStopsAtDeadline(t *testing.T) {
	var calls [3]atomic.Int64
	vs := fakeVerbs(&calls)
	vs[0].Do = func(*rand.Rand) error { time.Sleep(time.Millisecond); return nil }
	l := newLoop(loopConfig{Clients: 2, Seed: 1, Verbs: vs[:1], Classify: fakeClassify})
	res := l.runPhase(50*time.Millisecond, 0)
	if res.attempted() == 0 || res.Elapsed < 50*time.Millisecond || res.Elapsed > 500*time.Millisecond {
		t.Fatalf("attempted %d in %v", res.attempted(), res.Elapsed)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	cases := []struct {
		xs   []int64
		p    float64
		want int64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 1, 1},
		{[]int64{10, 20, 30}, 50, 20},
		{[]int64{10, 20, 30}, 99, 30},
		{[]int64{10, 20, 30, 40}, 50, 20},
		{[]int64{7}, 99, 7},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.xs, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the benchmark's consumers compute spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("quartiles of three = %v %v %v", q1, med, q3)
	}
}

func TestWindowsCutAtTicks(t *testing.T) {
	start := time.Now()
	p := phase{}
	p.Start = start
	for i := 0; i <= 3; i++ {
		p.ticks = append(p.ticks, cpuTick{at: start.Add(time.Duration(i) * time.Second), cpu: time.Duration(i) * 800 * time.Millisecond})
	}
	// 2 verbs in window 0, 1 in window 2, 1 after the last tick (dropped)
	for _, end := range []time.Duration{100 * time.Millisecond, 900 * time.Millisecond, 2500 * time.Millisecond, 3200 * time.Millisecond} {
		p.Samples = append(p.Samples, sample{lat: time.Millisecond, end: end})
	}
	ws := p.windows()
	if len(ws) != 3 || len(ws[0].lat) != 2 || len(ws[1].lat) != 0 || len(ws[2].lat) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[1].dur != time.Second || ws[1].cpu != 800*time.Millisecond {
		t.Fatalf("window 1 = %+v", ws[1])
	}
	p.Outcomes[outOK] = 4
	p.Elapsed = 3200 * time.Millisecond
	m := endToEnd(&p, 0)
	if m["ops_per_s"] != 1 { // window rates 2, 0, 1: the stalled second counts
		t.Fatalf("ops_per_s = %v, want the median window rate 1", m["ops_per_s"])
	}
	if m["cpu_ms_per_op"] != 600 { // 800ms/2 and 800ms/1 → median 600
		t.Fatalf("cpu_ms_per_op = %v, want 600", m["cpu_ms_per_op"])
	}
}
