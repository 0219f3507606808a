package obs

import (
	"sync"
	"time"
)

// Instr is an entity's handle into the obs subsystem: it times each logical
// operation into a latency histogram and the span ring, and counts
// errored operations. A nil *Instr — the state when an entity's Obs knob is
// unset — makes Begin/End pure no-ops that read no clock and allocate
// nothing, so uninstrumented runs stay byte-identical.
type Instr struct {
	reg    *Registry
	entity string
	tracer *Tracer

	mu    sync.RWMutex
	hists map[string]*Histogram // op → latency histogram, built on demand
}

// NewInstr returns an instrumentation handle for the named entity, or nil
// when reg is nil, so the disabled state costs one pointer comparison per
// operation.
func NewInstr(reg *Registry, entity string) *Instr {
	if reg == nil {
		return nil
	}
	reg.Help("whopay_op_seconds", "Latency of WhoPay protocol operations, by entity and operation.")
	reg.Help("whopay_op_errors_total", "Protocol operations that returned an error, by entity and operation.")
	return &Instr{
		reg:    reg,
		entity: entity,
		tracer: reg.Tracer(),
		hists:  make(map[string]*Histogram),
	}
}

// OpSpan is one in-flight operation between Begin and End. The zero
// value (from a nil Instr) is inert.
type OpSpan struct {
	hist *Histogram
	t0   time.Time
	op   string
}

// Begin starts timing op.
func (in *Instr) Begin(op string) OpSpan {
	if in == nil {
		return OpSpan{}
	}
	return OpSpan{hist: in.hist(op), t0: time.Now(), op: op}
}

// End closes the operation: it records the latency, counts the error if
// any, and stores the span as the root of its own party-local trace.
func (in *Instr) End(s OpSpan, err error) {
	if in == nil || s.hist == nil {
		return
	}
	d := time.Since(s.t0)
	s.hist.Observe(d)
	rec := SpanRecord{TraceID: newID(), Entity: in.entity, Op: s.op, Start: s.t0, Duration: d}
	if err != nil {
		in.reg.Counter("whopay_op_errors_total", Labels{"entity": in.entity, "op": s.op}).Inc()
		rec.Err = err.Error()
	}
	in.tracer.record(rec)
}

// hist returns the latency histogram for op, caching the handle so the hot
// path avoids the registry's mutex after first use.
func (in *Instr) hist(op string) *Histogram {
	in.mu.RLock()
	h, ok := in.hists[op]
	in.mu.RUnlock()
	if ok {
		return h
	}
	h = in.reg.Histogram("whopay_op_seconds", Labels{"entity": in.entity, "op": op}, nil)
	in.mu.Lock()
	in.hists[op] = h
	in.mu.Unlock()
	return h
}
