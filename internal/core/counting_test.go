package core

import (
	"testing"

	"whopay/internal/coin"
	"whopay/internal/sig"
)

// TestMicroOpCountsPerVerb pins DESIGN.md §4's per-verb, per-role
// micro-operation counts on the production stack (tcpbus, a DHT ring the
// owner publishes to) under each real scheme. Identical tables under
// Ed25519 and ECDSA are the evidence that the scheme changes what an
// operation costs, never how many the protocol performs.
//
// The transfer row is the paper's own accounting (Section 6.2): "each
// transfer involves 1 key pair generation, 4 signature generations, 4
// signature verifications, 1 group signature generation, and 1 group
// signature verification" across the three peers — the fourth signature is
// the owner's signed publish to the public binding list. The payee's DHT
// cross-check and the holders' watch subscriptions are off, as in the
// paper's count.
func TestMicroOpCountsPerVerb(t *testing.T) {
	type counts = sig.Snapshot
	eachRealScheme(t, func(t *testing.T, scheme sig.Scheme) {
		var broker, owner, holder, payee sig.Counter
		w := newTCPWorld(t, scheme, tcpWorldOpts{brokerRec: &broker, detection: true})
		u := w.peer("u", &owner)
		v := w.peer("v", &holder)
		x := w.peer("w", &payee)
		roles := []struct {
			name string
			rec  *sig.Counter
		}{{"owner", &owner}, {"holder", &holder}, {"payee", &payee}, {"broker", &broker}}

		var id coin.ID
		steps := []struct {
			verb string
			do   func() error
			want map[string]counts // role → delta; absent roles do nothing
		}{
			{"purchase", func() (err error) { id, err = u.Purchase(1, false); return err }, map[string]counts{
				"owner":  {KeyGens: 1, Signs: 1, Verifies: 1},
				"broker": {Signs: 1, Verifies: 1},
			}},
			{"issue", func() error { return u.IssueTo(v.ep.Addr(), id) }, map[string]counts{
				"owner":  {Signs: 3},
				"holder": {KeyGens: 1, Verifies: 3},
			}},
			{"renew", func() error { _, err := v.Renew(id); return err }, map[string]counts{
				"owner":  {Signs: 2, Verifies: 1, GroupVerifies: 1},
				"holder": {Signs: 1, Verifies: 1, GroupSigns: 1},
			}},
			{"transfer", func() error { return v.TransferTo(x.ep.Addr(), id) }, map[string]counts{
				"owner":  {Signs: 3, Verifies: 1, GroupVerifies: 1},
				"holder": {Signs: 1, GroupSigns: 1},
				"payee":  {KeyGens: 1, Verifies: 3},
			}},
			{"deposit", func() error { return x.Deposit(id, "w-payout") }, map[string]counts{
				"payee":  {Signs: 1, GroupSigns: 1},
				"broker": {Verifies: 2, GroupVerifies: 1},
			}},
		}
		// The steps run in order on one coin whatever -run selects, so every
		// verb's subtest can be run alone; a subtest only checks its deltas.
		deltas := make([][]counts, len(steps)) // step → role → delta
		for s, step := range steps {
			before := make([]counts, len(roles))
			for i, r := range roles {
				before[i] = r.rec.Snapshot()
			}
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", step.verb, err)
			}
			deltas[s] = make([]counts, len(roles))
			for i, r := range roles {
				after := r.rec.Snapshot()
				deltas[s][i] = counts{
					KeyGens:       after.KeyGens - before[i].KeyGens,
					Signs:         after.Signs - before[i].Signs,
					Verifies:      after.Verifies - before[i].Verifies,
					GroupSigns:    after.GroupSigns - before[i].GroupSigns,
					GroupVerifies: after.GroupVerifies - before[i].GroupVerifies,
				}
			}
		}
		for s, step := range steps {
			t.Run(step.verb, func(t *testing.T) {
				for i, r := range roles {
					if got, want := deltas[s][i], step.want[r.name]; got != want {
						t.Errorf("%s micro-ops = %+v, want %+v", r.name, got, want)
					}
				}
			})
		}
	})
}

// TestBrokerRecorder: a Recorder wired into the broker attributes downtime
// work to the broker.
func TestBrokerRecorder(t *testing.T) {
	net := newFixture(t, fixtureOpts{})
	_ = net // fixture without recorder exercised elsewhere; build one with.
	var bRec sig.Counter
	f := newFixtureWithBrokerRecorder(t, &bRec)
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	w := f.addPeer("w", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	u.GoOffline()
	base := bRec.Snapshot()
	if err := v.TransferViaBroker(w.Addr(), id); err != nil {
		t.Fatal(err)
	}
	got := bRec.Snapshot()
	if got.Signs-base.Signs == 0 || got.Verifies-base.Verifies == 0 || got.GroupVerifies-base.GroupVerifies != 1 {
		t.Fatalf("broker micro-ops delta: %+v → %+v", base, got)
	}
}

// newFixtureWithBrokerRecorder builds a minimal world whose broker carries
// a Recorder.
func newFixtureWithBrokerRecorder(t *testing.T, rec sig.Recorder) *fixture {
	t.Helper()
	f := newFixture(t, fixtureOpts{})
	broker, err := NewBroker(BrokerConfig{
		Network:   f.net,
		Addr:      "broker2",
		Scheme:    f.scheme,
		Recorder:  rec,
		Clock:     f.clock.Now,
		Directory: f.dir,
		GroupPub:  f.judge.GroupPublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })
	f.broker = broker
	return f
}
