// Package obs is WhoPay's zero-dependency observability subsystem
// (DESIGN.md §11): a metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms exposed in Prometheus text format),
// lightweight protocol tracing (one span per logical operation, with the
// trace ID propagated through transport envelopes so a multi-hop transfer
// yields one coherent trace across payer, owner, payee, and broker), and a
// runtime admin HTTP server mounting /metrics, /healthz, /traces, and
// net/http/pprof.
//
// The subsystem is disabled by default: every entity takes a nil-default
// *Registry knob, and all metric handles are nil-safe no-ops, so with the
// knob unset no clock is read, no allocation happens, and message counts
// and error shapes are byte-identical to an uninstrumented build. The
// paper's cost metrics (exact message counts in bus.Memory, micro-op
// recorders) therefore keep working unchanged.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attach constant dimensions to a metric at creation time (e.g.
// entity="peer-0", op="transfer"). Label sets are canonicalized, so the
// same name+labels always yields the same metric instance.
type Labels map[string]string

// Counter is a monotonically increasing metric. All methods are safe on a
// nil receiver (no-ops), so instrumented code needs no enabled/disabled
// branches.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets is the default latency bucket layout: exponential from 10µs to
// 10s, sized for the spread between an in-memory protocol hop (~100µs), a
// TCP round-trip, and an fsync-bound operation.
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1, 2.5, 10,
}

// Histogram is a fixed-bucket latency histogram: one atomic counter per
// bucket plus an atomic sum and count, so concurrent observers never take a
// lock. Bounds are upper bounds in seconds; an implicit +Inf bucket catches
// the tail. Nil-safe: Observe and Start on a nil histogram do nothing —
// notably Start does not even read the clock, keeping disabled hot paths
// identical to uninstrumented ones.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64 // sum of observations in nanoseconds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Start returns the current time for a later ObserveSince, or the zero time
// on a nil histogram (so disabled paths never read the clock).
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since t0; it is a no-op on a nil
// histogram or a zero t0 (the Start of a disabled histogram).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations in seconds (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNs.Load()) / float64(time.Second)
}

// snapshot returns cumulative bucket counts (Prometheus histograms are
// cumulative), the total count, and the sum. Reads are atomic per bucket
// but not across buckets; exposition tolerates the skew (a scrape races
// writers by design).
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	var acc int64
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		cum[i] = acc
	}
	return cum, h.count.Load(), h.Sum()
}

// metricKind discriminates what a family holds.
type metricKind int

const (
	// kindUnset marks a family created by Help before any instrument
	// touched it; the first instrument registration adopts it.
	kindUnset metricKind = iota
	kindCounter
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance inside a family.
type series struct {
	labels string // canonical rendered label string, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label strings in first-registration order (sorted at exposition)
	series map[string]*series
}

// Registry is the root of the observability subsystem: a named collection
// of metrics, a span tracer, and a set of health checks, all served by the
// admin endpoint. The nil *Registry is the disabled state — every accessor
// returns nil handles whose methods are no-ops. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; sorted at exposition

	tracerOnce sync.Once
	tracer     *Tracer

	healthMu sync.Mutex
	health   []healthEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the series for name+labels, building it with mk under the
// registry lock on first use — so two first observers can never each install
// an instrument and lose one's samples — or, for a func-backed kind, on every
// call (a later registration supersedes the earlier one). A published series
// is never mutated, which is what lets Value and the exposition read its
// fields outside the lock. It panics on a kind mismatch — two call sites
// disagreeing on what a name means is a programming error worth failing
// loudly on.
func (r *Registry) lookup(name string, labels Labels, kind metricKind, mk func(*series)) *series {
	key := canonLabels(labels)
	replace := kind == kindCounterFunc || kind == kindGaugeFunc
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind == kindUnset {
		f.kind = kind
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered with conflicting kinds")
	}
	s, ok := f.series[key]
	if !ok {
		f.order = append(f.order, key)
	}
	if !ok || replace {
		s = &series{labels: key}
		mk(s)
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, func(s *series) { s.c = &Counter{} }).c
}

// Gauge returns the gauge for name+labels (nil on a nil registry).
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, func(s *series) { s.g = &Gauge{} }).g
}

// Histogram returns the histogram for name+labels with the given bucket
// bounds (DefBuckets when nil). Bounds are fixed at first registration;
// later calls reuse the existing instance. Nil on a nil registry.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, func(s *series) { s.h = newHistogram(bounds) }).h
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — the bridge for pre-existing atomics (bus.RetryCaller retry counts,
// sig cache hits) that should not be double-counted into a second atomic.
// fn must be safe for concurrent use. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, labels, kindCounterFunc, func(s *series) {
		s.fn = func() float64 { return float64(fn()) }
	})
}

// GaugeFunc registers a gauge read from fn at exposition time (live store
// sizes, cache occupancy). No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, labels, kindGaugeFunc, func(s *series) { s.fn = fn })
}

// Help sets the HELP text for a metric family (shown in the exposition).
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, kind: kindUnset, series: make(map[string]*series)}
		r.names = append(r.names, name)
	}
}

// Value reads the current value of the series name+labels without creating
// it — the read-side counterpart of the typed accessors, safe on any kind
// (Counter/Gauge on a func-backed family panics; Value never does).
// Counters and gauges return their stored value, func-backed series invoke
// their function, histograms return their observation count. The second
// return is false when the family or series does not exist, and always on
// a nil registry.
func (r *Registry) Value(name string, labels Labels) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := canonLabels(labels)
	r.mu.Lock()
	var s *series
	if f, ok := r.families[name]; ok {
		s = f.series[key]
	}
	r.mu.Unlock()
	if s == nil {
		return 0, false
	}
	// fn runs outside the registry lock: functions are required to be
	// concurrency-safe but may themselves touch the registry.
	switch {
	case s.fn != nil:
		return sanitizeFloat(s.fn()), true
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return float64(s.g.Value()), true
	case s.h != nil:
		return float64(s.h.Count()), true
	}
	return 0, false
}

// Tracer returns the registry's span tracer, creating it (with the default
// ring capacity) on first use. Nil on a nil registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.tracerOnce.Do(func() { r.tracer = NewTracer(DefaultTraceCap) })
	return r.tracer
}

// sanity guard: exposition must render non-finite func values as something
// Prometheus parsers accept.
func sanitizeFloat(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
