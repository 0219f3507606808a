package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNilRegistryNoOps proves the disabled state end to end: every handle
// off a nil registry is nil, and every method on those nil handles is a
// no-op — the contract the core entities rely on to stay byte-identical
// with observability off.
func TestNilRegistryNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", nil)
	g := reg.Gauge("x", nil)
	h := reg.Histogram("x_seconds", nil, nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	if !h.Start().IsZero() {
		t.Fatal("nil histogram Start must not read the clock")
	}
	h.ObserveSince(time.Time{})
	h.Observe(time.Second)
	reg.CounterFunc("f_total", nil, func() int64 { return 1 })
	reg.GaugeFunc("f", nil, func() float64 { return 1 })
	reg.Help("x_total", "help")
	reg.RegisterHealth("x", func() (string, error) { return "", nil })
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if reg.Tracer() != nil {
		t.Fatal("nil registry must have a nil tracer")
	}
	sp := reg.Tracer().StartSpan("e", "op")
	sp.End(nil)
	in := NewInstr(nil, "e")
	if in != nil {
		t.Fatal("NewInstr(nil) must be nil")
	}
	os := in.Begin("op")
	in.End(os, errors.New("x"))
}

// TestCounterRejectsNegative documents that counters are monotonic.
func TestCounterRejectsNegative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mono_total", nil)
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after Add(-3) = %d, want 5", got)
	}
}

// TestRegistryKindConflictPanics pins the fail-loud contract for name
// collisions across metric kinds.
func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name must panic")
		}
	}()
	reg.Gauge("dual", nil)
}

// TestHelpBeforeInstrument covers the common registration order — Help
// first, instrument second — which must not count as a kind conflict.
func TestHelpBeforeInstrument(t *testing.T) {
	reg := NewRegistry()
	reg.Help("pre_total", "declared before the counter exists")
	reg.Counter("pre_total", nil).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE pre_total counter") {
		t.Fatalf("exposition lost the adopted kind:\n%s", buf.String())
	}
}

// TestPrometheusGolden locks the exact exposition bytes for a registry with
// every metric kind, label escaping, and a histogram. Regenerate with
// go test ./internal/obs -run Golden -update.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()

	reg.Help("wp_requests_total", "Requests served.")
	reg.Counter("wp_requests_total", Labels{"entity": "broker", "op": "deposit"}).Add(7)
	reg.Counter("wp_requests_total", Labels{"entity": "peer-1", "op": "transfer"}).Add(3)

	reg.Help("wp_open_conns", "Open connections.")
	reg.Gauge("wp_open_conns", nil).Set(4)

	reg.Help("wp_escape_total", "Label escaping corner cases.")
	reg.Counter("wp_escape_total", Labels{"path": `a"b\c` + "\n"}).Inc()

	reg.Help("wp_cache_total", "Read through a CounterFunc.")
	reg.CounterFunc("wp_cache_total", Labels{"outcome": "hit"}, func() int64 { return 42 })
	reg.GaugeFunc("wp_load", nil, func() float64 { return 2.5 })

	reg.Help("wp_op_seconds", "Operation latency.")
	h := reg.Histogram("wp_op_seconds", Labels{"op": "purchase"}, []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(500 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "expo.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRegistryRaceHammer runs writers of every kind, dynamic series
// creation, span recording, and concurrent scrapes together; its value is
// under -race, where any unsynchronized access in the registry shows up.
func TestRegistryRaceHammer(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer()
	const writers, iters = 8, 2000
	var done atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			c := reg.Counter("hammer_total", Labels{"w": fmt.Sprint(w % 4)})
			g := reg.Gauge("hammer_gauge", nil)
			h := reg.Histogram("hammer_seconds", Labels{"w": fmt.Sprint(w % 2)}, nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				// Dynamic get-or-create on a hot path, as instr.hist does.
				reg.Counter("hammer_dyn_total", Labels{"k": fmt.Sprint(i % 8)}).Inc()
				sp := tr.StartSpan("hammer", "op")
				if i%3 == 0 {
					sp.End(errors.New("boom"))
				} else {
					sp.End(nil)
				}
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done.Load() < writers {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				tr.Spans()
			}
		}()
	}
	wg.Wait()
	var total int64
	for w := 0; w < 4; w++ {
		total += reg.Counter("hammer_total", Labels{"w": fmt.Sprint(w)}).Value()
	}
	if total != writers*iters {
		t.Fatalf("hammer_total sum = %d, want %d", total, writers*iters)
	}
	if got := reg.Histogram("hammer_seconds", Labels{"w": "0"}, nil).Count(); got != writers/2*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers/2*iters)
	}
}

// TestConcurrentFirstRegistration: goroutines that race to be the first
// user of one series must all land on the same instrument. Each round
// releases a cohort at once against a fresh name; a registry that installs
// the instrument outside its lock hands two of them different instances, one
// of which is lost along with its samples (and trips -race).
func TestConcurrentFirstRegistration(t *testing.T) {
	reg := NewRegistry()
	const rounds, cohort = 200, 8
	for r := 0; r < rounds; r++ {
		hist, ctr, gauge := fmt.Sprintf("first_h_%d", r), fmt.Sprintf("first_c_%d", r), fmt.Sprintf("first_g_%d", r)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < cohort; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				reg.Histogram(hist, nil, nil).Observe(time.Millisecond)
				reg.Counter(ctr, nil).Inc()
				reg.Gauge(gauge, nil).Add(1)
			}()
		}
		close(start)
		wg.Wait()
		if got := reg.Histogram(hist, nil, nil).Count(); got != cohort {
			t.Fatalf("round %d: histogram kept %d of %d first observations", r, got, cohort)
		}
		if got := reg.Counter(ctr, nil).Value(); got != cohort {
			t.Fatalf("round %d: counter kept %d of %d first increments", r, got, cohort)
		}
		if got := reg.Gauge(gauge, nil).Value(); got != cohort {
			t.Fatalf("round %d: gauge kept %d of %d first adds", r, got, cohort)
		}
	}
}

// TestSpanNesting proves same-goroutine parentage: a span opened while
// another is active becomes its child, and ending the child restores the
// parent as the ambient context.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	parent := tr.StartSpan("peer", "transfer")
	child := tr.StartSpan("peer", "sign")
	child.End(nil)
	mid, _ := Current()
	parent.End(nil)
	after, _ := Current()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Ring records in End order: child first.
	if spans[0].ParentID != spans[1].SpanID {
		t.Fatalf("child parent = %q, want %q", spans[0].ParentID, spans[1].SpanID)
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Fatal("nested spans must share a trace")
	}
	if mid != spans[1].TraceID {
		t.Fatal("ending the child must restore the parent context")
	}
	if after != "" {
		t.Fatalf("ending the root must clear the context, got %q", after)
	}
}

// TestAdoptPropagatesRemoteParent models the transport server side: Adopt
// installs a remote trace identity, spans started under it join that trace,
// and release restores the prior (empty) context.
func TestAdoptPropagatesRemoteParent(t *testing.T) {
	tr := NewTracer(16)
	release := Adopt("remotetrace", "remotespan")
	sp := tr.StartSpan("broker", "serve-deposit")
	sp.End(nil)
	release()
	if id, _ := Current(); id != "" {
		t.Fatalf("release must clear adopted context, got %q", id)
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	if spans[0].TraceID != "remotetrace" || spans[0].ParentID != "remotespan" {
		t.Fatalf("span = %+v, want adopted trace/parent", spans[0])
	}
}

// TestTracerRingBound proves the ring drops oldest-first at capacity.
func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("e", fmt.Sprintf("op-%d", i))
		sp.End(nil)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("op-%d", 6+i); s.Op != want {
			t.Fatalf("spans[%d].Op = %q, want %q (oldest-first)", i, s.Op, want)
		}
	}
}

// TestSpanErrRecorded pins that failures land in the record.
func TestSpanErrRecorded(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.StartSpan("e", "op")
	sp.End(errors.New("kaput"))
	if got := tr.Spans()[0].Err; got != "kaput" {
		t.Fatalf("Err = %q", got)
	}
}

// TestAdminEndpoints boots the admin server on a loopback port and walks
// /metrics, /healthz (healthy and unhealthy), and /traces.
func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("admin_smoke_total", nil).Inc()
	sp := reg.Tracer().StartSpan("e", "smoke")
	sp.End(nil)
	healthy := atomic.Bool{}
	healthy.Store(true)
	reg.RegisterHealth("flip", func() (string, error) {
		if healthy.Load() {
			return "ok", nil
		}
		return "", errors.New("down")
	})

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "admin_smoke_total 1") {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"healthy":true`) {
		t.Fatalf("healthy /healthz = %d %s", code, body)
	}
	healthy.Store(false)
	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz = %d %s", code, body)
	}
	code, body = get("/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	var recs []SpanRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].Op != "smoke" {
		t.Fatalf("/traces = %+v", recs)
	}
	// Filtered to a bogus trace ID: empty array, still valid JSON.
	code, body = get("/traces?trace=nosuch")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("filtered /traces = %d %q", code, body)
	}
}
