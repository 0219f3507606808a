package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whopay/internal/bus"
	"whopay/internal/sig"
)

// The traced run records spans from the benchmark's own decorators at the
// layer boundaries the system exposes through interfaces: sig.Scheme (every
// real sign/verify/keygen the caches let through) and bus.Network (every
// outbound Call and every served Handler). Spans stay in memory and are
// written out when the run ends. The run has one client, so the verb in
// flight is unique and a span's verb is simply the one current at its
// start; work of background goroutines (DHT sweeps, the deposit batcher's
// linger timer) lands on whichever verb it overlaps, which is also where
// its CPU competes.

// spanKind names what a span measured.
type spanKind uint8

const (
	spanVerb   spanKind = iota // one verb call, the root of its spans
	spanCall                   // outbound bus Call; Role is the callee's
	spanServe                  // served bus Handler; Role is the server's
	spanSign                   // sig.Scheme.Sign
	spanVerify                 // sig.Scheme.Verify / VerifyDecoded (cache misses only)
	spanDecode                 // sig.KeyDecoder.DecodePublic
	spanKeygen                 // sig.Scheme.GenerateKey
)

var spanKindNames = [...]string{"verb", "call", "serve", "sig.sign", "sig.verify", "sig.decode", "sig.keygen"}

// role is the kind of endpoint on the far (Call) or near (Handler) side.
type role uint8

const (
	roleNone role = iota
	roleBroker
	rolePeer
	roleJudge
	roleDHT
)

var roleNames = [...]string{"", "broker", "peer", "judge", "dht"}

// roleOf maps the logical endpoint names load.World uses ("broker",
// "judge", "dht:0", "peer:actor-0003") to a role.
func roleOf(name string) role {
	switch {
	case name == "broker":
		return roleBroker
	case name == "judge":
		return roleJudge
	case strings.HasPrefix(name, "dht:"):
		return roleDHT
	case strings.HasPrefix(name, "peer:"):
		return rolePeer
	}
	return roleNone
}

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Verb is the id of the verb in flight when it started
// (0: none, i.e. between verbs or during set-up). For spanVerb, Arg is the
// verb's index in the mix.
type span struct {
	Kind  spanKind
	Role  role
	Arg   int32
	Verb  int64
	Start int64
	End   int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	cur   atomic.Int64 // verb in flight
	next  atomic.Int64 // verb id allocator
	on    atomic.Bool  // spans are dropped while off (set-up, warm-up)

	mu    sync.Mutex
	spans []span

	roleMu sync.RWMutex
	roles  map[bus.Address]role
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roles: make(map[bus.Address]role)}
}

// opened is a span that has begun: its start and the verb then in flight.
type opened struct {
	verb  int64
	start time.Time
}

func (t *tracer) begin() opened { return opened{t.cur.Load(), time.Now()} }

// end closes a span and stores it.
func (t *tracer) end(o opened, kind spanKind, r role, arg int32) {
	if !t.on.Load() {
		return
	}
	s := span{Kind: kind, Role: r, Arg: arg, Verb: o.verb,
		Start: int64(o.start.Sub(t.epoch)), End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginVerb opens the root span of one verb call; the returned function
// closes it. It is the loop's OnVerb hook.
func (t *tracer) beginVerb(_ int, verbIdx int) func() {
	t.cur.Store(t.next.Add(1))
	o := t.begin()
	return func() {
		t.end(o, spanVerb, roleNone, int32(verbIdx))
		t.cur.Store(0)
	}
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// ---- sig decorator ----

// decodingScheme is what the sig decorator wraps: a scheme that also
// exposes its key-decode step, as sig.ECDSA does. Requiring it by type is
// what keeps sig.Cached's decoded-key path alive under the decorator.
type decodingScheme interface {
	sig.Scheme
	sig.KeyDecoder
}

// tracedScheme times every operation of the scheme it wraps. It reports the
// inner Name (sig.Cached keys its null-scheme bypass on it) and forwards
// sig.KeyDecoder.
type tracedScheme struct {
	inner decodingScheme
	t     *tracer
}

var _ decodingScheme = tracedScheme{}

func (s tracedScheme) Name() string { return s.inner.Name() }

func (s tracedScheme) GenerateKey() (sig.KeyPair, error) {
	o := s.t.begin()
	kp, err := s.inner.GenerateKey()
	s.t.end(o, spanKeygen, roleNone, 0)
	return kp, err
}

func (s tracedScheme) Sign(priv sig.PrivateKey, msg []byte) ([]byte, error) {
	o := s.t.begin()
	out, err := s.inner.Sign(priv, msg)
	s.t.end(o, spanSign, roleNone, 0)
	return out, err
}

func (s tracedScheme) Verify(pub sig.PublicKey, msg, sigBytes []byte) error {
	o := s.t.begin()
	err := s.inner.Verify(pub, msg, sigBytes)
	s.t.end(o, spanVerify, roleNone, 0)
	return err
}

func (s tracedScheme) DecodePublic(pub sig.PublicKey) (any, error) {
	o := s.t.begin()
	k, err := s.inner.DecodePublic(pub)
	s.t.end(o, spanDecode, roleNone, 0)
	return k, err
}

func (s tracedScheme) VerifyDecoded(key any, msg, sigBytes []byte) error {
	o := s.t.begin()
	err := s.inner.VerifyDecoded(key, msg, sigBytes)
	s.t.end(o, spanVerify, roleNone, 0)
	return err
}

// ---- bus decorator ----

// tracedNet times every outbound Call and every served Handler of the
// network it wraps. load.World hands a non-default Network logical endpoint
// names, which carry the role; the decorator binds each to an ephemeral
// loopback port on the real transport and remembers the bound address's
// role so a Call can be tagged with its callee's.
type tracedNet struct {
	inner bus.Network
	t     *tracer
}

func (n *tracedNet) Listen(addr bus.Address, h bus.Handler) (bus.Endpoint, error) {
	r := roleOf(string(addr))
	ep, err := n.inner.Listen("127.0.0.1:0", func(from bus.Address, msg any) (any, error) {
		o := n.t.begin()
		resp, err := h(from, msg)
		n.t.end(o, spanServe, r, 0)
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	n.t.roleMu.Lock()
	n.t.roles[ep.Addr()] = r
	n.t.roleMu.Unlock()
	return &tracedEndpoint{Endpoint: ep, t: n.t}, nil
}

type tracedEndpoint struct {
	bus.Endpoint
	t *tracer
}

func (e *tracedEndpoint) Call(to bus.Address, msg any) (any, error) {
	e.t.roleMu.RLock()
	r := e.t.roles[to]
	e.t.roleMu.RUnlock()
	o := e.t.begin()
	resp, err := e.Endpoint.Call(to, msg)
	e.t.end(o, spanCall, r, 0)
	return resp, err
}

// ---- span arithmetic ----

// spanSums is what the spans of a set of verbs add up to, in nanoseconds
// and counts. Sums are plain additions over spans, so parallel work (a
// quorum fan-out, a batch verify) counts every branch: they are busy time,
// not wall time.
type spanSums struct {
	Verbs    int64
	VerbNs   int64
	Signs    int64
	Verifies int64
	SigNs    int64 // sign + verify + decode + keygen
	Calls    [len(roleNames)]int64
	CallNs   int64
	ServeNs  int64
	DHTNs    int64 // Σ served DHT handlers (inclusive of what they call)
	// CoreSelfNs is the wall time of the verbs during which the innermost
	// open span was the verb itself or a broker/peer/judge handler: the
	// protocol logic's own time, with signature work, transport and the DHT
	// taken out. Unlike the sums it never counts an instant twice.
	CoreSelfNs int64
	// CoreSelfByVerb splits CoreSelfNs by the verb's index in the mix;
	// VerbsByVerb counts the verbs behind each entry.
	CoreSelfByVerb map[int32]int64
	VerbsByVerb    map[int32]int64
}

// transitNs is the time calls spent outside any handler: codec, syscalls,
// loopback and scheduler queues, both directions. A nested call adds its
// own duration to ΣCall and, through its caller's handler, the same
// interval to ΣHandler, so the difference stays exact under nesting.
func (s spanSums) transitNs() int64 { return s.CallNs - s.ServeNs }

// sumSpans folds the spans that belong to a verb (Verb != 0).
func sumSpans(spans []span) spanSums {
	s := spanSums{CoreSelfByVerb: map[int32]int64{}, VerbsByVerb: map[int32]int64{}}
	byVerb := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Verb == 0 {
			continue
		}
		byVerb[sp.Verb] = append(byVerb[sp.Verb], sp)
		switch sp.Kind {
		case spanVerb:
			s.Verbs++
			s.VerbNs += sp.dur()
		case spanCall:
			s.Calls[sp.Role]++
			s.CallNs += sp.dur()
		case spanServe:
			s.ServeNs += sp.dur()
			if sp.Role == roleDHT {
				s.DHTNs += sp.dur()
			}
		case spanSign:
			s.Signs++
			s.SigNs += sp.dur()
		case spanVerify:
			s.Verifies++
			s.SigNs += sp.dur()
		case spanDecode, spanKeygen:
			s.SigNs += sp.dur()
		}
	}
	for _, vs := range byVerb {
		self, verbIdx, ok := coreSelfNs(vs)
		if !ok {
			continue
		}
		s.CoreSelfNs += self
		s.CoreSelfByVerb[verbIdx] += self
		s.VerbsByVerb[verbIdx]++
	}
	return s
}

// coreSelfNs sweeps one verb's spans in time order and returns the wall
// time, inside the verb's own interval, during which the most recently
// opened span still open belonged to core: the verb root or a handler of a
// broker, peer or judge, together with the verb's index in the mix. Spans
// without a root (the verb was cut off by the phase end) report !ok.
func coreSelfNs(spans []span) (self int64, verbIdx int32, ok bool) {
	var root *span
	for i := range spans {
		if spans[i].Kind == spanVerb {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return 0, 0, false
	}
	type edge struct {
		at   int64
		open bool
		idx  int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, sp := range spans {
		// A span is filed under the verb in flight when it began, so it
		// cannot start before its root; work the verb did not wait for can
		// outlive it and is cut at the root's end.
		end := min(sp.End, root.End)
		if end <= sp.Start && sp.Kind != spanVerb {
			continue
		}
		edges = append(edges, edge{sp.Start, true, i}, edge{end, false, i})
	}
	// Closes before opens at the same instant, so back-to-back spans do not
	// overlap; otherwise by time.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open
	})
	isCore := func(sp span) bool {
		return sp.Kind == spanVerb || (sp.Kind == spanServe && sp.Role != roleDHT)
	}
	open := make(map[int]bool)
	var prev int64
	for _, e := range edges {
		if len(open) > 0 && e.at > prev {
			// innermost = latest start among the open spans
			best := -1
			for i := range open {
				if best < 0 || spans[i].Start > spans[best].Start ||
					(spans[i].Start == spans[best].Start && i > best) {
					best = i
				}
			}
			if isCore(spans[best]) {
				self += e.at - prev
			}
		}
		prev = e.at
		if e.open {
			open[e.idx] = true
		} else {
			delete(open, e.idx)
		}
	}
	return self, root.Arg, true
}

// ---- trace file ----

// traceFile is the on-disk form of a traced run: a legend and one row per
// span, [kind, role, arg, verb, start_ns, end_ns].
type traceFile struct {
	Workload string     `json:"workload"`
	Kinds    []string   `json:"kinds"`
	Roles    []string   `json:"roles"`
	Verbs    []string   `json:"verbs"`
	Columns  []string   `json:"columns"`
	Spans    [][6]int64 `json:"spans"`
}

func writeTrace(path, workload string, verbNames []string, spans []span) error {
	tf := traceFile{
		Workload: workload,
		Kinds:    spanKindNames[:],
		Roles:    roleNames[:],
		Verbs:    verbNames,
		Columns:  []string{"kind", "role", "arg", "verb", "start_ns", "end_ns"},
		Spans:    make([][6]int64, len(spans)),
	}
	for i, s := range spans {
		tf.Spans[i] = [6]int64{int64(s.Kind), int64(s.Role), int64(s.Arg), s.Verb, s.Start, s.End}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
