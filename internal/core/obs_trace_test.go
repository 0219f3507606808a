package core

import (
	"fmt"
	"strings"
	"testing"

	"whopay/internal/obs"
	"whopay/internal/sig"
)

// TestTracePropagationOverTCP proves end-to-end trace stitching on the
// production stack: one anonymous transfer is a three-hop exchange — payer
// → payee (offer), payer → owner (transfer), owner → payee (deliver) —
// each hop crossing a real TCP socket. With a shared registry the trace
// identity rides the request frames, so all three entities' server spans
// land in ONE trace rooted at the payer's client span.
func TestTracePropagationOverTCP(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		reg := obs.NewRegistry()
		w := newTCPWorld(t, scheme, tcpWorldOpts{reg: reg})
		owner := w.peer("trace-owner", nil)
		payer := w.peer("trace-payer", nil)
		payee := w.peer("trace-payee", nil)

		id, err := owner.Purchase(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.IssueTo(payer.ep.Addr(), id); err != nil {
			t.Fatal(err)
		}
		if err := payer.TransferTo(payee.ep.Addr(), id); err != nil {
			t.Fatal(err)
		}
		checkTransferTrace(t, reg.Tracer())
	})
}

// checkTransferTrace asserts that the payer's transfer span roots one
// stitched trace holding exactly one span per hop from all three parties.
func checkTransferTrace(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	var traceID, rootSpan string
	for _, s := range tr.Spans() {
		if s.Op == "transfer" && s.Entity == "trace-payer" {
			traceID, rootSpan = s.TraceID, s.SpanID
		}
	}
	if traceID == "" {
		t.Fatal("no transfer span recorded for the payer")
	}
	trace := tr.Trace(traceID)

	inTrace := make(map[string]bool, len(trace))
	entities := make(map[string]bool)
	ops := make(map[string]int)
	for _, s := range trace {
		inTrace[s.SpanID] = true
		entities[s.Entity] = true
		ops[s.Op]++
	}
	for _, want := range []string{"trace-payer", "trace-owner", "trace-payee"} {
		if !entities[want] {
			t.Errorf("trace %s is missing spans from %s (has %v)", traceID, want, keys(entities))
		}
	}
	for _, want := range []string{"transfer", "serve-offer", "serve-transfer", "serve-deliver"} {
		if ops[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (ops: %v)", ops[want], want, ops)
		}
	}
	// Every non-root span's parent must resolve inside the same trace —
	// that is what makes it one stitched tree rather than four orphans.
	for _, s := range trace {
		if s.SpanID == rootSpan {
			if s.ParentID != "" {
				t.Errorf("root span has parent %q", s.ParentID)
			}
			continue
		}
		if s.ParentID == "" || !inTrace[s.ParentID] {
			t.Errorf("span %s/%s parent %q not in trace", s.Entity, s.Op, s.ParentID)
		}
	}
	// The three server-side spans crossed real sockets: their parents were
	// reconstructed from envelope fields, not shared memory.
	if ops["serve-deliver"] == 1 {
		var deliver, serveTransfer obs.SpanRecord
		for _, s := range trace {
			switch s.Op {
			case "serve-deliver":
				deliver = s
			case "serve-transfer":
				serveTransfer = s
			}
		}
		if deliver.ParentID != serveTransfer.SpanID {
			t.Errorf("serve-deliver parent = %s, want the owner's serve-transfer span %s",
				deliver.ParentID, serveTransfer.SpanID)
		}
	}
}

// TestUntracedTCPEnvelopeUnchanged pins the disabled-state wire contract:
// without a registry the transport injects nothing, so no span records
// exist anywhere and messages decode exactly as before.
func TestUntracedTCPEnvelopeUnchanged(t *testing.T) {
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		w := newTCPWorld(t, scheme, tcpWorldOpts{})
		if _, err := w.peer("untraced", nil).Purchase(1, false); err != nil {
			t.Fatalf("purchase without obs: %v", err)
		}
	})
}

func keys(m map[string]bool) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return fmt.Sprintf("[%s]", strings.Join(out, " "))
}
