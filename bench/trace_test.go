package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/core"
	"whopay/internal/sig"
)

// us builds a span from microsecond bounds, for one verb.
func us(kind spanKind, r role, start, end int64) span {
	return span{Kind: kind, Role: r, Verb: 1, Start: start * 1000, End: end * 1000}
}

// A transfer-shaped verb: the client calls the owner (a peer), whose
// handler signs, calls the broker (whose handler verifies) and returns.
//
//	verb          0 ........................................ 1000
//	call.peer        100 ........................... 900
//	serve.peer           200 ............... 800
//	sig.sign                 250 .. 350
//	call.broker                   400 ...... 700
//	serve.broker                    450 . 650
//	sig.verify                       500 600
func nestedVerb() []span {
	return []span{
		us(spanVerb, roleNone, 0, 1000),
		us(spanCall, rolePeer, 100, 900),
		us(spanServe, rolePeer, 200, 800),
		us(spanSign, roleNone, 250, 350),
		us(spanCall, roleBroker, 400, 700),
		us(spanServe, roleBroker, 450, 650),
		us(spanVerify, roleNone, 500, 600),
	}
}

func TestTransitExactUnderNesting(t *testing.T) {
	s := sumSpans(nestedVerb())
	// outer call: 800 in flight, 600 served → 200 in transit; the nested
	// call: 300 in flight, 200 served → 100. ΣCall − ΣHandler = 1100 − 800.
	if got := s.transitNs(); got != 300_000 {
		t.Fatalf("transit = %d ns, want 300000", got)
	}
	if s.Calls[rolePeer] != 1 || s.Calls[roleBroker] != 1 || s.Calls[roleDHT] != 0 {
		t.Fatalf("calls by role = %v", s.Calls)
	}
	if s.Signs != 1 || s.Verifies != 1 || s.SigNs != 200_000 {
		t.Fatalf("sig: %d signs, %d verifies, %d ns", s.Signs, s.Verifies, s.SigNs)
	}
}

func TestCoreSelfIsTheResidual(t *testing.T) {
	s := sumSpans(nestedVerb())
	// Sequential spans: core self = verb − sig − transit, nothing counted
	// twice. 1000 − 200 − 300 = 500 (client 200, peer handler 200, broker
	// handler 100).
	want := s.VerbNs - s.SigNs - s.transitNs()
	if s.CoreSelfNs != want || want != 500_000 {
		t.Fatalf("core self = %d ns, residual = %d ns, want 500000", s.CoreSelfNs, want)
	}
	if s.CoreSelfByVerb[0] != 500_000 || s.VerbsByVerb[0] != 1 {
		t.Fatalf("per-verb split = %v / %v", s.CoreSelfByVerb, s.VerbsByVerb)
	}
}

// A quorum write: the owner's handler calls a DHT coordinator, which fans
// out to two replicas in parallel. Inclusive sums count the overlap more
// than once; core self must not, and must leave DHT time out.
func TestCoreSelfUnderParallelFanOut(t *testing.T) {
	spans := []span{
		us(spanVerb, roleNone, 0, 1000),
		us(spanCall, rolePeer, 0, 1000),
		us(spanServe, rolePeer, 100, 900),
		us(spanCall, roleDHT, 200, 800),
		us(spanServe, roleDHT, 250, 750), // coordinator
		us(spanCall, roleDHT, 300, 700),  // to replica 1
		us(spanCall, roleDHT, 300, 650),  // to replica 2, in parallel
		us(spanServe, roleDHT, 350, 600),
		us(spanServe, roleDHT, 340, 640),
	}
	s := sumSpans(spans)
	if s.Calls[roleDHT] != 3 {
		t.Fatalf("dht calls %d", s.Calls[roleDHT])
	}
	if s.DHTNs != (500+250+300)*1000 {
		t.Fatalf("dht serve sum = %d", s.DHTNs)
	}
	// Core owns only what no DHT span or call covers: the peer handler
	// before and after its DHT call, 100..200 and 800..900.
	if s.CoreSelfNs != 200_000 {
		t.Fatalf("core self = %d ns, want 200000", s.CoreSelfNs)
	}
}

func TestSpansOutsideVerbsAndCutVerbs(t *testing.T) {
	spans := []span{
		{Kind: spanSign, Verb: 0, Start: 0, End: 500},  // between verbs: ignored
		{Kind: spanCall, Verb: 9, Start: 0, End: 1000}, // its verb never closed
		{Kind: spanVerb, Verb: 2, Start: 1000, End: 2000, Arg: 3},
		{Kind: spanVerify, Verb: 2, Start: 1900, End: 2300}, // outlives its verb: cut at the verb's end
	}
	s := sumSpans(spans)
	if s.Verbs != 1 || s.Signs != 0 {
		t.Fatalf("verbs %d signs %d", s.Verbs, s.Signs)
	}
	if s.CoreSelfNs != 900 || s.CoreSelfByVerb[3] != 900 {
		t.Fatalf("core self = %d, by verb %v; want 900 under verb 3", s.CoreSelfNs, s.CoreSelfByVerb)
	}
}

// The decorators in front of a real transport: roles are recovered from
// the logical names, calls are tagged with the callee's role, and the
// nested-call arithmetic holds on measured spans.
func TestDecoratorsOnTCP(t *testing.T) {
	core.RegisterWireTypes()
	tr := newTracer()
	tr.on.Store(true)
	net := &tracedNet{inner: tcpbus.New(), t: tr}

	broker, err := net.Listen("broker", func(_ bus.Address, m any) (any, error) { return m, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	var peer bus.Endpoint
	peer, err = net.Listen("peer:actor-0001", func(_ bus.Address, m any) (any, error) {
		return peer.Call(broker.Addr(), m) // nested call from inside a handler
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	client, err := net.Listen("peer:actor-0002", func(_ bus.Address, m any) (any, error) { return m, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := tr.beginVerb(0, 2)
	if _, err := client.Call(peer.Addr(), core.TransferRequest{}); err != nil {
		t.Fatal(err)
	}
	done()

	s := sumSpans(tr.take())
	if s.Verbs != 1 || s.Calls[rolePeer] != 1 || s.Calls[roleBroker] != 1 {
		t.Fatalf("verbs %d, calls %v", s.Verbs, s.Calls)
	}
	if s.transitNs() <= 0 || s.transitNs() >= s.VerbNs {
		t.Fatalf("transit %d ns of a %d ns verb", s.transitNs(), s.VerbNs)
	}
	if s.CoreSelfNs <= 0 || s.CoreSelfNs+s.transitNs() > s.VerbNs {
		t.Fatalf("core self %d + transit %d exceed the verb's %d ns", s.CoreSelfNs, s.transitNs(), s.VerbNs)
	}
	if s.CoreSelfByVerb[2] != s.CoreSelfNs {
		t.Fatalf("core self not filed under verb index 2: %v", s.CoreSelfByVerb)
	}
}

// sig.Cached must still find the decoded-key path and the inner name
// through the decorator, and every real operation must leave a span.
func TestTracedSchemeKeepsCachedFastPath(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	scheme := tracedScheme{inner: sig.ECDSA{}, t: tr}
	if scheme.Name() != (sig.ECDSA{}).Name() {
		t.Fatalf("name = %q", scheme.Name())
	}
	cached := sig.NewCached(scheme, sig.CacheOptions{})
	kp, err := cached.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("one"), []byte("two")}
	for _, m := range msgs {
		sg, err := cached.Sign(kp.Private, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // two of the three are memo hits
			if err := cached.Verify(kp.Public, m, sg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := cached.Stats(); st.KeyHits != 1 || st.KeyMisses != 1 {
		t.Fatalf("decoded-key cache not used through the decorator: %+v", st)
	}
	counts := map[spanKind]int{}
	for _, sp := range tr.take() {
		counts[sp.Kind]++
	}
	if counts[spanKeygen] != 1 || counts[spanSign] != 2 || counts[spanVerify] != 2 || counts[spanDecode] != 1 {
		t.Fatalf("spans by kind = %v", counts)
	}
}

func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "steady", []string{"transfer"}, nestedVerb()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "steady" || len(tf.Spans) != 7 || tf.Kinds[tf.Spans[3][0]] != "sig.sign" || tf.Roles[tf.Spans[1][1]] != "peer" {
		t.Fatalf("trace file = %+v", tf)
	}
}
