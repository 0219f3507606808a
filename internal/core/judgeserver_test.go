package core

import (
	"errors"
	"strings"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
)

// TestRemoteEnrollment: peers enroll with a JudgeServer over the bus and
// transact normally; fairness (opening) still works because the judge
// retains the serial map.
func TestRemoteEnrollment(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	js, err := NewJudgeServer(f.net, "judge", f.judge, f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { js.Close() })

	mk := func(id string) *Peer {
		p, err := NewPeer(PeerConfig{
			ID:         id,
			Network:    f.net,
			Addr:       bus.Address("remote-" + id),
			Scheme:     f.scheme,
			Clock:      f.clock.Now,
			Directory:  f.dir,
			BrokerAddr: f.broker.Addr(),
			BrokerPub:  f.broker.PublicKey(),
			JudgeAddr:  js.Addr(),
			CredPool:   2, // force refills
			Prober:     f.net,
			Presence:   f.net,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	alice := mk("alice")
	bob := mk("bob")

	// Enough payments to exhaust the 2-credential pool and force a
	// refill RPC.
	for i := 0; i < 6; i++ {
		from, to := alice, bob
		if i%2 == 1 {
			from, to = bob, alice
		}
		if _, err := from.Pay(to.Addr(), 1, PolicyI); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	// Fairness: capture one more transfer's group signature and open it.
	id := alice.HeldCoins()[0]
	resp, err := alice.ep.Call(bob.Addr(), OfferRequest{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	hc, _ := alice.held.Get(id)
	req, err := alice.buildTransfer(hc, bob.Addr(), resp.(OfferResponse))
	if err != nil {
		t.Fatal(err)
	}
	identity, err := f.judge.Open(req.Body.Message(), req.GroupSig)
	if err != nil {
		t.Fatal(err)
	}
	if identity != "alice" {
		t.Fatalf("opened %q", identity)
	}
}

// TestRemoteEnrollmentValidation covers the server's rejection paths.
func TestRemoteEnrollmentValidation(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	js, err := NewJudgeServer(f.net, "judge", f.judge, f.scheme)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { js.Close() })
	ep, err := f.net.Listen("attacker", func(bus.Address, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	newKey := func() sig.KeyPair {
		kp, err := f.scheme.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}
	credKeys := func(n int) []sig.PublicKey {
		out := make([]sig.PublicKey, n)
		for i := range out {
			out[i] = newKey().Public
		}
		return out
	}
	kp := newKey()
	sign := func(msg []byte) []byte {
		s, err := f.scheme.Sign(kp.Private, msg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	signedRefill := func(keys []sig.PublicKey) RefillRequest {
		return RefillRequest{Identity: "victim", Keys: keys, Sig: sign(refillMessage("victim", keys))}
	}

	// Happy path first: enroll "victim" under kp, then refill once.
	victimKeys := credKeys(2)
	req := EnrollRequest{Identity: "victim", Keys: victimKeys, Pub: kp.Public}
	req.Sig = sign(enrollMessage("victim", victimKeys, kp.Public))
	if _, err := ep.Call("judge", req); err != nil {
		t.Fatal(err)
	}
	replayed := signedRefill(credKeys(2))
	if _, err := ep.Call("judge", replayed); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		msg  any
		want string
	}{
		{"empty identity", EnrollRequest{Keys: credKeys(2), Pub: kp.Public}, "empty"},
		{"huge pool", func() any {
			keys := credKeys(maxCredentialBatch + 1)
			return EnrollRequest{Identity: "x", Keys: keys, Pub: kp.Public, Sig: sign(enrollMessage("x", keys, kp.Public))}
		}(), "batch of 257"},
		{"bad signature", EnrollRequest{Identity: "y", Keys: credKeys(2), Pub: kp.Public, Sig: []byte("junk")}, "signature"},
		{"identity takeover", func() any {
			other := newKey()
			keys := credKeys(2)
			r := EnrollRequest{Identity: "victim", Keys: keys, Pub: other.Public}
			s, err := f.scheme.Sign(other.Private, enrollMessage("victim", keys, other.Public))
			if err != nil {
				t.Fatal(err)
			}
			r.Sig = s
			return r
		}(), "different key"},
		{"key certified to another identity", func() any {
			thief := newKey()
			keys := []sig.PublicKey{newKey().Public, victimKeys[0]}
			r := EnrollRequest{Identity: "thief", Keys: keys, Pub: thief.Public}
			s, err := f.scheme.Sign(thief.Private, enrollMessage("thief", keys, thief.Public))
			if err != nil {
				t.Fatal(err)
			}
			r.Sig = s
			return r
		}(), "already certified"},
		{"refill unknown", RefillRequest{Identity: "ghost", Keys: credKeys(2)}, "not enrolled"},
		{"refill bad sig", RefillRequest{Identity: "victim", Keys: credKeys(2), Sig: []byte("junk")}, "signature"},
		{"refill huge", signedRefill(credKeys(maxCredentialBatch + 1)), "batch of 257"},
		{"refill keys altered after signing", func() any {
			r := signedRefill(credKeys(2))
			r.Keys = []sig.PublicKey{r.Keys[0], newKey().Public}
			return r
		}(), "signature"},
		{"refill replayed", replayed, "already certified"},
		{"refill empty key", signedRefill([]sig.PublicKey{newKey().Public, {}}), "empty credential key"},
		{"unknown message", 42, "judge got"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ep.Call("judge", tc.msg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}

	// Legit refill still works.
	keys := credKeys(3)
	raw, err := ep.Call("judge", signedRefill(keys))
	if err != nil {
		t.Fatal(err)
	}
	got := raw.(RefillResponse).Credentials
	if len(got) != 3 {
		t.Fatalf("refill returned %d credentials", len(got))
	}
	for i, c := range got {
		if !c.Pub.Equal(keys[i]) {
			t.Fatalf("credential %d certifies another key", i)
		}
	}
}

// TestRevokedRefillOverTCP: a revoked member's refill is refused with
// groupsig.ErrRevoked, and the rejection survives tcpbus as that sentinel.
func TestRevokedRefillOverTCP(t *testing.T) {
	registerOnce.Do(RegisterWireTypes)
	network := tcpbus.New()
	scheme := sig.Default()
	judge, err := NewJudge(scheme)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJudgeServer(network, "127.0.0.1:0", judge, scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	p, err := NewPeer(PeerConfig{
		ID: "mallory", Network: network, Addr: "127.0.0.1:0", Scheme: scheme,
		Directory: NewDirectory(), BrokerAddr: "127.0.0.1:1",
		JudgeAddr: js.Addr(), CredPool: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	judge.Revoke("mallory")
	member := p.GroupMember()
	for i := 0; i < 2; i++ {
		if _, err := member.Sign(p.Suite(), []byte("m")); err != nil {
			t.Fatalf("signature %d from the enrolled pool: %v", i, err)
		}
	}
	_, err = member.Sign(p.Suite(), []byte("m"))
	if !errors.Is(err, groupsig.ErrRevoked) {
		t.Fatalf("refill after revocation: got %v, want groupsig.ErrRevoked", err)
	}
}

// TestRemoteEnrollmentOverTCP: the full multi-process shape — judge,
// broker and peers all on real sockets; the only shared object is the
// directory.
func TestRemoteEnrollmentOverTCP(t *testing.T) {
	registerOnce.Do(RegisterWireTypes)
	network := tcpbus.New()
	scheme := sig.ECDSA{}
	dir := NewDirectory()
	judge, err := NewJudge(scheme)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJudgeServer(network, "127.0.0.1:0", judge, scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	broker, err := NewBroker(BrokerConfig{
		Network: network, Addr: "127.0.0.1:0", Scheme: scheme,
		Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	mk := func(id string) *Peer {
		p, err := NewPeer(PeerConfig{
			ID: id, Network: network, Addr: "127.0.0.1:0", Scheme: scheme,
			Directory: dir, BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(),
			JudgeAddr: js.Addr(), CredPool: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	u := mk("u")
	v := mk("v")
	id, err := u.Purchase(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IssueTo(v.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if err := v.Deposit(id, "v-ref"); err != nil {
		t.Fatal(err)
	}
	if broker.Balance("v-ref") != 2 {
		t.Fatalf("balance = %d", broker.Balance("v-ref"))
	}
}
