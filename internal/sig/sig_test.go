package sig

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func schemes() map[string]Scheme {
	return map[string]Scheme{
		"ecdsa":   ECDSA{},
		"ed25519": Ed25519{},
		"null":    NewNull(7),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, err := s.GenerateKey()
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			msg := []byte("pay to the bearer one coin")
			sigBytes, err := s.Sign(kp.Private, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, err := s.GenerateKey()
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			msg := []byte("original")
			sigBytes, err := s.Sign(kp.Private, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(kp.Public, []byte("tampered"), sigBytes); err == nil {
				t.Fatal("Verify accepted a tampered message")
			}
		})
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp1, err := s.GenerateKey()
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			kp2, err := s.GenerateKey()
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			msg := []byte("msg")
			sigBytes, err := s.Sign(kp1.Private, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(kp2.Public, msg, sigBytes); err == nil {
				t.Fatal("Verify accepted a signature under the wrong key")
			}
		})
	}
}

func TestVerifyRejectsTruncatedSignature(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, err := s.GenerateKey()
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			msg := []byte("msg")
			sigBytes, err := s.Sign(kp.Private, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := s.Verify(kp.Public, msg, sigBytes[:len(sigBytes)/2]); err == nil {
				t.Fatal("Verify accepted a truncated signature")
			}
		})
	}
}

func TestMalformedKeysRejected(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Sign(PrivateKey{1, 2, 3}, []byte("m")); err == nil {
				t.Error("Sign accepted a malformed private key")
			}
			if err := s.Verify(PublicKey{1, 2, 3}, []byte("m"), []byte("sig")); err == nil {
				t.Error("Verify accepted a malformed public key")
			}
		})
	}
}

func TestECDSARejectsOffCurvePoint(t *testing.T) {
	pub := make(PublicKey, ecdsaPubLen)
	pub[0] = 4
	pub[10] = 0xff // almost certainly not on P-256
	err := (ECDSA{}).Verify(pub, []byte("m"), []byte("sig"))
	if !errors.Is(err, ErrBadKey) {
		t.Fatalf("Verify(off-curve) = %v, want ErrBadKey", err)
	}
}

func TestECDSARejectsZeroScalar(t *testing.T) {
	priv := make(PrivateKey, ecdsaPrivLen)
	_, err := (ECDSA{}).Sign(priv, []byte("m"))
	if !errors.Is(err, ErrBadKey) {
		t.Fatalf("Sign(zero scalar) = %v, want ErrBadKey", err)
	}
}

// TestECDSAPrivateKeyEncodings: a generated key carries its public point
// (scalar‖point) so Sign skips the base-point multiplication, and the bare
// scalar an older journal holds still signs for the same public key.
func TestECDSAPrivateKeyEncodings(t *testing.T) {
	s := ECDSA{}
	kp, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(kp.Private) != ecdsaPrivLen+ecdsaPubLen || !bytes.Equal(kp.Private[ecdsaPrivLen:], kp.Public) {
		t.Fatalf("generated private key is %d bytes, want scalar followed by the public point", len(kp.Private))
	}
	msg := []byte("both encodings")
	for name, priv := range map[string]PrivateKey{
		"scalar+point": kp.Private,
		"bare scalar":  kp.Private[:ecdsaPrivLen],
	} {
		sigBytes, err := s.Sign(priv, msg)
		if err != nil {
			t.Fatalf("%s: Sign: %v", name, err)
		}
		if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
	}
	// A point that is not on the curve is rejected, not signed with.
	bad := append(PrivateKey(nil), kp.Private...)
	bad[ecdsaPrivLen+10] ^= 0xff
	if _, err := s.Sign(bad, msg); !errors.Is(err, ErrBadKey) {
		t.Fatalf("Sign(off-curve point) = %v, want ErrBadKey", err)
	}
}

func TestKeysAreUnique(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			seen := make(map[string]bool)
			for i := 0; i < 64; i++ {
				kp, err := s.GenerateKey()
				if err != nil {
					t.Fatalf("GenerateKey: %v", err)
				}
				if seen[string(kp.Public)] {
					t.Fatalf("duplicate public key after %d generations", i)
				}
				seen[string(kp.Public)] = true
			}
		})
	}
}

func TestNullKeysUniqueAcrossInstances(t *testing.T) {
	a, b := NewNull(1), NewNull(2)
	ka, err := a.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ka.Public, kb.Public) {
		t.Fatal("null keys collided across instances")
	}
}

func TestNullKeysUniqueConcurrently(t *testing.T) {
	s := NewNull(3)
	const workers, perWorker = 8, 200
	keys := make(chan string, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kp, err := s.GenerateKey()
				if err != nil {
					t.Error(err)
					return
				}
				keys <- string(kp.Public)
			}
		}()
	}
	wg.Wait()
	close(keys)
	seen := make(map[string]bool, workers*perWorker)
	for k := range keys {
		if seen[k] {
			t.Fatal("concurrent null key collision")
		}
		seen[k] = true
	}
}

func TestPublicKeyHelpers(t *testing.T) {
	kp, err := Ed25519{}.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if !kp.Public.Equal(kp.Public.Clone()) {
		t.Fatal("clone not equal to original")
	}
	clone := kp.Public.Clone()
	clone[0] ^= 0xff
	if kp.Public.Equal(clone) {
		t.Fatal("mutating clone affected original")
	}
	if kp.Public.String() == "" {
		t.Fatal("empty String()")
	}
	var nilKey PublicKey
	if nilKey.Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestFingerprintDistinguishesKeys(t *testing.T) {
	// Property: distinct byte strings yield distinct fingerprints
	// (collision would require breaking SHA-256).
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return PublicKey(a).Fingerprint() == PublicKey(b).Fingerprint()
		}
		return PublicKey(a).Fingerprint() != PublicKey(b).Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullSignVerifyProperty(t *testing.T) {
	s := NewNull(9)
	kp, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sigBytes, err := s.Sign(kp.Private, msg)
		if err != nil {
			return false
		}
		return s.Verify(kp.Public, msg, sigBytes) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAttribution(t *testing.T) {
	var c Counter
	suite := NewSuite(NewNull(4), &c)
	kp, err := suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	sigBytes, err := suite.Sign(kp.Private, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Verify(kp.Public, []byte("m"), sigBytes); err != nil {
		t.Fatal(err)
	}
	if err := suite.Verify(kp.Public, []byte("x"), sigBytes); err == nil {
		t.Fatal("expected failure")
	}
	got := c.Snapshot()
	want := Snapshot{KeyGens: 1, Signs: 1, Verifies: 2}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{KeyGens: 1, Signs: 2, Verifies: 3, GroupSigns: 4, GroupVerifies: 5}
	b := Snapshot{KeyGens: 10, Signs: 20, Verifies: 30, GroupSigns: 40, GroupVerifies: 50}
	got := a.Add(b)
	want := Snapshot{KeyGens: 11, Signs: 22, Verifies: 33, GroupSigns: 44, GroupVerifies: 55}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestSuiteNilRecorder(t *testing.T) {
	suite := NewSuite(NewNull(5), nil)
	kp, err := suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	sigBytes, err := suite.Sign(kp.Private, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Verify(kp.Public, []byte("m"), sigBytes); err != nil {
		t.Fatal(err)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordSign()
				c.RecordVerify()
				c.RecordGroupSign()
				c.RecordGroupVerify()
				c.RecordKeyGen()
			}
		}()
	}
	wg.Wait()
	got := c.Snapshot()
	want := Snapshot{KeyGens: 1000, Signs: 1000, Verifies: 1000, GroupSigns: 1000, GroupVerifies: 1000}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

// Benchmarks feeding Table 2 (measured operation cost). The paper measured
// DSA-1024 key generation / signing / verification; these measure the
// production scheme (Ed25519), our ECDSA P-256 stand-in, and Null.

func BenchmarkEd25519KeyGen(b *testing.B) { benchKeyGen(b, Ed25519{}) }
func BenchmarkEd25519Sign(b *testing.B)   { benchSign(b, Ed25519{}) }
func BenchmarkEd25519Verify(b *testing.B) { benchVerify(b, Ed25519{}) }
func BenchmarkECDSAKeyGen(b *testing.B)   { benchKeyGen(b, ECDSA{}) }
func BenchmarkECDSASign(b *testing.B)     { benchSign(b, ECDSA{}) }
func BenchmarkECDSAVerify(b *testing.B)   { benchVerify(b, ECDSA{}) }
func BenchmarkNullSign(b *testing.B)      { benchSign(b, NewNull(1)) }

var benchMsg = []byte("benchmark message for table 2")

func benchKeyGen(b *testing.B, s Scheme) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.GenerateKey(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSign(b *testing.B, s Scheme) {
	kp, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(kp.Private, benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVerify(b *testing.B, s Scheme) {
	kp, msg, sigBytes := signedTriple(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
			b.Fatal(err)
		}
	}
}
