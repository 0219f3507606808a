package groupsig

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"whopay/internal/sig"
)

func newTestGroup(t *testing.T) (*Manager, sig.Suite) {
	t.Helper()
	scheme := sig.NewNull(100)
	m, err := NewManager(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return m, sig.Suite{Scheme: scheme}
}

func TestSignVerifyOpen(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("transfer coin X to holder key Y")
	gs, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(suite, m.GroupPublicKey(), msg, gs); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	identity, err := m.Open(msg, gs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if identity != "alice" {
		t.Fatalf("Open = %q, want alice", identity)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := mk.Sign(suite, []byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(suite, m.GroupPublicKey(), []byte("tampered"), gs); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsForeignGroup(t *testing.T) {
	m1, suite := newTestGroup(t)
	m2, err := NewManager(suite.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := m1.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("msg")
	gs, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(suite, m2.GroupPublicKey(), msg, gs); !errors.Is(err, ErrNotMember) {
		t.Fatalf("got %v, want ErrNotMember", err)
	}
}

func TestVerifyRejectsUncertifiedCredential(t *testing.T) {
	m, suite := newTestGroup(t)
	// Adversary mints its own key pair and self-signed cert.
	kp, err := suite.Scheme.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("msg")
	fakeCert, err := suite.Scheme.Sign(kp.Private, CredentialMessage(99, kp.Public))
	if err != nil {
		t.Fatal(err)
	}
	body, err := suite.Scheme.Sign(kp.Private, msg)
	if err != nil {
		t.Fatal(err)
	}
	gs := Signature{Cred: Credential{Serial: 99, Pub: kp.Public, Cert: fakeCert}, Sig: body}
	if err := Verify(suite, m.GroupPublicKey(), msg, gs); !errors.Is(err, ErrNotMember) {
		t.Fatalf("got %v, want ErrNotMember", err)
	}
}

func TestSignaturesAreUnlinkable(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 8)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message twice")
	gs1, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	gs2, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	if gs1.Cred.Serial == gs2.Cred.Serial {
		t.Fatal("two signatures reused a credential serial (linkable)")
	}
	if bytes.Equal(gs1.Cred.Pub, gs2.Cred.Pub) {
		t.Fatal("two signatures reused a credential key (linkable)")
	}
}

// TestSerialsDoNotLinkSigners: two members sign in turns, each draining a
// full refill before the other, and an adversary who sees every signature
// (never the judge's map) sorts them by serial and guesses that each
// adjacent pair came from one member. With two equally active members
// chance is 1/2; serials allocated as runs per refill would hand the
// adversary nearly every pair.
func TestSerialsDoNotLinkSigners(t *testing.T) {
	m, suite := newTestGroup(t)
	members := map[string]*MemberKey{}
	for _, id := range []string{"alice", "bob"} {
		mk, err := m.Enroll(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		members[id] = mk
	}
	type observed struct {
		serial uint64
		signer string // ground truth, hidden from the adversary
	}
	var seen []observed
	for round := 0; round < 4; round++ {
		for _, id := range []string{"alice", "bob"} {
			for i := 0; i < refillBatch; i++ {
				gs, err := members[id].Sign(suite, []byte("m"))
				if err != nil {
					t.Fatal(err)
				}
				seen = append(seen, observed{gs.Cred.Serial, id})
			}
		}
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].serial < seen[j].serial })
	linked := 0
	for i := 1; i < len(seen); i++ {
		if seen[i].signer == seen[i-1].signer {
			linked++
		}
	}
	// 255 pairs at p = 1/2: 0.65 is more than 4.7 standard deviations out.
	if rate := float64(linked) / float64(len(seen)-1); rate > 0.65 {
		t.Fatalf("adjacent serials link their signers %.0f%% of the time; chance is 50%%", 100*rate)
	}
}

func TestSignatureCarriesNoIdentity(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice-the-payer", 2)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := mk.Sign(suite, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(gs.Cred.Pub, []byte("alice")) || bytes.Contains(gs.Cred.Cert, []byte("alice")) || bytes.Contains(gs.Sig, []byte("alice")) {
		t.Fatal("identity leaked into signature bytes")
	}
}

func TestPoolRefill(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < refillBatch+5; i++ {
		gs, err := mk.Sign(suite, []byte("m"))
		if err != nil {
			t.Fatalf("Sign %d: %v", i, err)
		}
		if seen[gs.Cred.Serial] {
			t.Fatalf("serial %d reused", gs.Cred.Serial)
		}
		seen[gs.Cred.Serial] = true
		identity, err := m.Open([]byte("m"), gs)
		if err != nil || identity != "alice" {
			t.Fatalf("Open after refill = %q, %v", identity, err)
		}
	}
}

func TestExhaustedPoolWithoutRefill(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	mk.refill = nil
	if _, err := mk.Sign(suite, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Sign(suite, []byte("m")); !errors.Is(err, ErrNoCredentials) {
		t.Fatalf("got %v, want ErrNoCredentials", err)
	}
}

func TestOpenRefusesForgedSignature(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := mk.Sign(suite, []byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	// Judge must not attribute a signature that does not verify.
	if _, err := m.Open([]byte("different"), gs); err == nil {
		t.Fatal("Open attributed an invalid signature")
	}
}

func TestOpenUnknownSerial(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := mk.Sign(suite, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	// A second manager with the same scheme cannot open it.
	m2, err := NewManager(suite.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Open([]byte("m"), gs); err == nil {
		t.Fatal("foreign manager opened a signature")
	}
	_ = mk
}

func TestRevocation(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("mallory", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Sign(suite, []byte("m")); err != nil {
		t.Fatal(err)
	}
	m.Revoke("mallory")
	if !m.IsRevoked("mallory") {
		t.Fatal("IsRevoked = false after Revoke")
	}
	// Pool is empty; refill must fail.
	if _, err := mk.Sign(suite, []byte("m")); err == nil {
		t.Fatal("revoked member still obtained credentials")
	}
	if _, err := m.Enroll("mallory", 1); !errors.Is(err, ErrRevoked) {
		t.Fatalf("re-enroll = %v, want ErrRevoked", err)
	}
}

func TestEnrollValidation(t *testing.T) {
	m, _ := newTestGroup(t)
	if _, err := m.Enroll("", 1); err == nil {
		t.Fatal("Enroll accepted empty identity")
	}
}

func TestDistinctMembersOpenDistinctly(t *testing.T) {
	m, suite := newTestGroup(t)
	alice, err := m.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := m.Enroll("bob", 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("payment")
	gsA, err := alice.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	gsB, err := bob.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := m.Open(msg, gsA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := m.Open(msg, gsB)
	if err != nil {
		t.Fatal(err)
	}
	if idA != "alice" || idB != "bob" {
		t.Fatalf("Open = %q, %q", idA, idB)
	}
}

// TestMasterKeyEscrow round-trips the master key through Shamir escrow for
// both production schemes: Ed25519's 64-byte key and ECDSA's 97-byte
// scalar‖point key, whose last chunk is a short one.
func TestMasterKeyEscrow(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.Ed25519{}, sig.ECDSA{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, err := NewManager(scheme)
			if err != nil {
				t.Fatal(err)
			}
			shares, err := m.EscrowMasterKey(3, 5)
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := RecoverMasterKey(shares[1:4], len(m.master.Private))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recovered, m.master.Private) {
				t.Fatal("escrow recovery mismatch")
			}
			// Recovered key must actually sign valid certificates.
			sigBytes, err := scheme.Sign(recovered, []byte("probe"))
			if err != nil {
				t.Fatal(err)
			}
			if err := scheme.Verify(m.GroupPublicKey(), []byte("probe"), sigBytes); err != nil {
				t.Fatalf("recovered key does not match group public key: %v", err)
			}
		})
	}
}

func TestCostAccounting(t *testing.T) {
	scheme := sig.NewNull(101)
	m, err := NewManager(scheme)
	if err != nil {
		t.Fatal(err)
	}
	var rec sig.Counter
	suite := sig.Suite{Scheme: scheme, Rec: &rec}
	mk, err := m.Enroll("alice", 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	gs, err := mk.Sign(suite, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(suite, m.GroupPublicKey(), msg, gs); err != nil {
		t.Fatal(err)
	}
	got := rec.Snapshot()
	want := sig.Snapshot{GroupSigns: 1, GroupVerifies: 1}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v (group ops must not double count regular ops)", got, want)
	}
}

func TestConcurrentSigning(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	serials := make(chan uint64, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				gs, err := mk.Sign(suite, []byte("m"))
				if err != nil {
					t.Error(err)
					return
				}
				serials <- gs.Cred.Serial
			}
		}()
	}
	wg.Wait()
	close(serials)
	seen := make(map[uint64]bool)
	for s := range serials {
		if seen[s] {
			t.Fatal("credential serial reused under concurrency")
		}
		seen[s] = true
	}
}

// TestSignVerifyProperty: arbitrary messages sign, verify, and open
// correctly.
func TestSignVerifyProperty(t *testing.T) {
	m, suite := newTestGroup(t)
	mk, err := m.Enroll("prop", 64)
	if err != nil {
		t.Fatal(err)
	}
	groupPub := m.GroupPublicKey()
	f := func(msg []byte) bool {
		gs, err := mk.Sign(suite, msg)
		if err != nil {
			return false
		}
		if err := Verify(suite, groupPub, msg, gs); err != nil {
			return false
		}
		id, err := m.Open(msg, gs)
		return err == nil && id == "prop"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGroupSignECDSA(b *testing.B) {
	scheme := sig.ECDSA{}
	m, err := NewManager(scheme)
	if err != nil {
		b.Fatal(err)
	}
	mk, err := m.Enroll("bench", b.N+refillBatch)
	if err != nil {
		b.Fatal(err)
	}
	suite := sig.Suite{Scheme: scheme}
	msg := []byte("benchmark message")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk.Sign(suite, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupVerifyECDSA(b *testing.B) {
	scheme := sig.ECDSA{}
	m, err := NewManager(scheme)
	if err != nil {
		b.Fatal(err)
	}
	mk, err := m.Enroll("bench", 2)
	if err != nil {
		b.Fatal(err)
	}
	suite := sig.Suite{Scheme: scheme}
	msg := []byte("benchmark message")
	gs, err := mk.Sign(suite, msg)
	if err != nil {
		b.Fatal(err)
	}
	groupPub := m.GroupPublicKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(suite, groupPub, msg, gs); err != nil {
			b.Fatal(err)
		}
	}
}
