package sig

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countingScheme wraps a Scheme (and its KeyDecoder, when present) with
// call counters, so tests can observe how much real crypto a Cached wrapper
// actually runs.
type countingScheme struct {
	inner    Scheme
	dec      KeyDecoder
	verifies atomic.Int64
	decodes  atomic.Int64
}

func newCountingScheme(inner Scheme) *countingScheme {
	dec, _ := inner.(KeyDecoder)
	return &countingScheme{inner: inner, dec: dec}
}

func (c *countingScheme) Name() string                  { return c.inner.Name() }
func (c *countingScheme) GenerateKey() (KeyPair, error) { return c.inner.GenerateKey() }
func (c *countingScheme) Sign(priv PrivateKey, msg []byte) ([]byte, error) {
	return c.inner.Sign(priv, msg)
}
func (c *countingScheme) Verify(pub PublicKey, msg []byte, sigBytes []byte) error {
	c.verifies.Add(1)
	return c.inner.Verify(pub, msg, sigBytes)
}
func (c *countingScheme) DecodePublic(pub PublicKey) (any, error) {
	c.decodes.Add(1)
	return c.dec.DecodePublic(pub)
}
func (c *countingScheme) VerifyDecoded(key any, msg, sigBytes []byte) error {
	c.verifies.Add(1)
	return c.dec.VerifyDecoded(key, msg, sigBytes)
}

func signedTriple(t testing.TB, scheme Scheme) (KeyPair, []byte, []byte) {
	t.Helper()
	kp, err := scheme.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cached-suite test message")
	sigBytes, err := scheme.Sign(kp.Private, msg)
	if err != nil {
		t.Fatal(err)
	}
	return kp, msg, sigBytes
}

// TestCachedMemoizesPositive: a repeat verify of the same (pub, msg, sig)
// triple is served from the memo — zero additional real crypto.
func TestCachedMemoizesPositive(t *testing.T) {
	cs := newCountingScheme(ECDSA{})
	c := NewCached(cs, CacheOptions{})
	kp, msg, sigBytes := signedTriple(t, ECDSA{})

	for i := 0; i < 5; i++ {
		if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	if got := cs.verifies.Load(); got != 1 {
		t.Fatalf("real verifies = %d, want 1 (memoized)", got)
	}
	if c.ResultLen() != 1 {
		t.Fatalf("ResultLen = %d", c.ResultLen())
	}
}

// TestCachedNegativeNotCached: failed verifies always re-run real crypto
// and never enter the memo.
func TestCachedNegativeNotCached(t *testing.T) {
	cs := newCountingScheme(ECDSA{})
	c := NewCached(cs, CacheOptions{})
	kp, msg, sigBytes := signedTriple(t, ECDSA{})
	bad := append([]byte(nil), sigBytes...)
	bad[len(bad)-1] ^= 0xFF

	for i := 0; i < 3; i++ {
		if err := c.Verify(kp.Public, msg, bad); err == nil {
			t.Fatal("tampered signature verified")
		}
	}
	if got := cs.verifies.Load(); got != 3 {
		t.Fatalf("real verifies = %d, want 3 (negatives not memoized)", got)
	}
	if c.ResultLen() != 0 {
		t.Fatalf("ResultLen = %d after only failures", c.ResultLen())
	}
}

// TestCachedDecodedKeyReused: distinct messages under one key parse the key
// once; the parse survives even though each signature is new.
func TestCachedDecodedKeyReused(t *testing.T) {
	cs := newCountingScheme(ECDSA{})
	c := NewCached(cs, CacheOptions{})
	kp, err := ECDSA{}.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		msg := []byte(fmt.Sprintf("message %d", i))
		sigBytes, err := ECDSA{}.Sign(kp.Private, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if got := cs.decodes.Load(); got != 1 {
		t.Fatalf("key decodes = %d, want 1", got)
	}
	if got := cs.verifies.Load(); got != 4 {
		t.Fatalf("real verifies = %d, want 4 (distinct messages)", got)
	}
	if c.KeyLen() != 1 {
		t.Fatalf("KeyLen = %d", c.KeyLen())
	}
}

// TestCachedMalformedKeyNotCached: a key that fails to decode is rejected
// every time and never occupies a cache slot.
func TestCachedMalformedKeyNotCached(t *testing.T) {
	c := NewCached(ECDSA{}, CacheOptions{})
	junk := PublicKey(make([]byte, 65)) // right length, not on curve
	junk[0] = 4
	for i := 0; i < 2; i++ {
		if err := c.Verify(junk, []byte("m"), []byte("s")); err == nil {
			t.Fatal("malformed key verified")
		}
	}
	if c.KeyLen() != 0 || c.ResultLen() != 0 {
		t.Fatalf("malformed key cached: keys=%d results=%d", c.KeyLen(), c.ResultLen())
	}
}

// TestCachedInvalidateKey: revoking one key forgets its decoded form and
// makes its memoized results unreachable, without touching other keys.
// Ed25519 has no decoded form, so for it the generation bump alone must
// force the re-verify.
func TestCachedInvalidateKey(t *testing.T) {
	for _, scheme := range []Scheme{Ed25519{}, ECDSA{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			cs := newCountingScheme(scheme)
			var inner Scheme = cs
			_, decodes := scheme.(KeyDecoder)
			if !decodes {
				inner = struct{ Scheme }{cs} // hide the decode methods scheme lacks
			}
			c := NewCached(inner, CacheOptions{})
			kp1, msg1, sig1 := signedTriple(t, scheme)
			kp2, msg2, sig2 := signedTriple(t, scheme)
			if err := c.Verify(kp1.Public, msg1, sig1); err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(kp2.Public, msg2, sig2); err != nil {
				t.Fatal(err)
			}
			before := cs.verifies.Load()

			c.InvalidateKey(kp1.Public)

			// kp1 must re-run real crypto; kp2 must still hit the memo.
			if err := c.Verify(kp1.Public, msg1, sig1); err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(kp2.Public, msg2, sig2); err != nil {
				t.Fatal(err)
			}
			if got := cs.verifies.Load(); got != before+1 {
				t.Fatalf("real verifies after InvalidateKey = %d, want %d", got, before+1)
			}
			if !decodes && c.KeyLen() != 0 {
				t.Fatalf("KeyLen = %d for a scheme without a key-decode step", c.KeyLen())
			}
		})
	}
}

// TestCachedInvalidate: the epoch bump empties everything.
func TestCachedInvalidate(t *testing.T) {
	cs := newCountingScheme(ECDSA{})
	c := NewCached(cs, CacheOptions{})
	kp, msg, sigBytes := signedTriple(t, ECDSA{})
	if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
		t.Fatal(err)
	}
	c.Invalidate()
	if c.ResultLen() != 0 || c.KeyLen() != 0 {
		t.Fatalf("cache not empty after Invalidate: results=%d keys=%d", c.ResultLen(), c.KeyLen())
	}
	before := cs.verifies.Load()
	if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
		t.Fatal(err)
	}
	if got := cs.verifies.Load(); got != before+1 {
		t.Fatalf("verify after Invalidate did not run real crypto")
	}
}

// TestCachedNullBypass: the simulation scheme passes straight through —
// nothing is cached and every operation actually executes.
func TestCachedNullBypass(t *testing.T) {
	c := NewCached(NewNull(7), CacheOptions{})
	kp, msg, sigBytes := signedTriple(t, NewNull(7))
	for i := 0; i < 3; i++ {
		if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if c.ResultLen() != 0 || c.KeyLen() != 0 {
		t.Fatalf("null scheme was cached: results=%d keys=%d", c.ResultLen(), c.KeyLen())
	}
}

// TestCachedResultBound: the result memo is bounded by its LRU capacity.
func TestCachedResultBound(t *testing.T) {
	c := NewCached(NewNull(9), CacheOptions{})
	c.bypass = false // force caching of the cheap null verifies
	kp, err := NewNull(9).GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	bound := c.results.Cap()
	for i := 0; i < bound+500; i++ {
		msg := []byte(fmt.Sprintf("msg %d", i))
		sigBytes, _ := NewNull(9).Sign(kp.Private, msg)
		if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ResultLen(); got > bound {
		t.Fatalf("ResultLen %d exceeds bound %d", got, bound)
	}
}

// TestVerifyBatchAligned: batch results are index-aligned with jobs, valid
// and invalid mixed.
func TestVerifyBatchAligned(t *testing.T) {
	c := NewCached(ECDSA{}, CacheOptions{Workers: 4})
	kp, msg, sigBytes := signedTriple(t, ECDSA{})
	bad := append([]byte(nil), sigBytes...)
	bad[0] ^= 0xFF
	jobs := []VerifyJob{
		{Pub: kp.Public, Msg: msg, Sig: sigBytes},
		{Pub: kp.Public, Msg: msg, Sig: bad},
		{Pub: kp.Public, Msg: []byte("other"), Sig: sigBytes},
		{Pub: kp.Public, Msg: msg, Sig: sigBytes},
	}
	errs := c.VerifyBatch(jobs)
	if len(errs) != len(jobs) {
		t.Fatalf("errs = %d", len(errs))
	}
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid jobs failed: %v, %v", errs[0], errs[3])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatal("invalid jobs passed")
	}
	// The package helper takes the BatchVerifier path for Cached and the
	// sequential path for plain schemes — both must agree.
	plain := VerifyBatch(ECDSA{}, jobs)
	for i := range jobs {
		if (plain[i] == nil) != (errs[i] == nil) {
			t.Fatalf("job %d: batch paths disagree", i)
		}
	}
}

// TestCachedConcurrent hammers one Cached scheme from many goroutines with
// a mix of hits, misses, failures and invalidations — meaningful under
// -race.
func TestCachedConcurrent(t *testing.T) {
	cs := newCountingScheme(ECDSA{})
	c := NewCached(cs, CacheOptions{KeyCapacity: 8, ResultCapacity: 32, Workers: 4})
	const nKeys = 4
	kps := make([]KeyPair, nKeys)
	msgs := make([][]byte, nKeys)
	sigs := make([][]byte, nKeys)
	for i := range kps {
		kps[i], msgs[i], sigs[i] = signedTriple(t, ECDSA{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (g + i) % nKeys
				switch i % 5 {
				case 0, 1, 2:
					if err := c.Verify(kps[k].Public, msgs[k], sigs[k]); err != nil {
						t.Errorf("verify: %v", err)
						return
					}
				case 3:
					bad := append([]byte(nil), sigs[k]...)
					bad[0] ^= 0xFF
					if err := c.Verify(kps[k].Public, msgs[k], bad); err == nil {
						t.Error("tampered signature verified")
						return
					}
				default:
					c.InvalidateKey(kps[k].Public)
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-invalidation correctness: everything still verifies.
	jobs := make([]VerifyJob, nKeys)
	for i := range jobs {
		jobs[i] = VerifyJob{Pub: kps[i].Public, Msg: msgs[i], Sig: sigs[i]}
	}
	for i, err := range c.VerifyBatch(jobs) {
		if err != nil {
			t.Fatalf("job %d after hammer: %v", i, err)
		}
	}
}

// TestCachedSuiteRecords: wrapping keeps the recorder and the per-verify
// accounting.
func TestCachedSuiteRecords(t *testing.T) {
	var rec Counter
	s, c := NewCachedSuite(Suite{Scheme: ECDSA{}, Rec: &rec}, CacheOptions{})
	if c == nil {
		t.Fatal("no cache handle")
	}
	kp, msg, sigBytes := signedTriple(t, ECDSA{})
	for i := 0; i < 3; i++ {
		if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Snapshot().Verifies; got != 3 {
		t.Fatalf("recorded verifies = %d, want 3 — caching must not change accounting", got)
	}
}

// BenchmarkVerifyCachedVsCold measures the verification fast path against
// plain ECDSA on the repeat-verify pattern WhoPay's hot paths produce.
//
//	cold:        full SEC1 decode + on-curve check + ECDSA verify per call
//	warm-key:    decoded key cached, signature check still runs (new sigs)
//	warm-result: full memo hit (same coin cert / binding re-verified)
func BenchmarkVerifyCachedVsCold(b *testing.B) {
	kp, msg, sigBytes := signedTriple(b, ECDSA{})

	b.Run("cold", func(b *testing.B) {
		s := ECDSA{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Verify(kp.Public, msg, sigBytes); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-key", func(b *testing.B) {
		c := NewCached(ECDSA{}, CacheOptions{})
		const distinct = 64
		msgs := make([][]byte, distinct)
		sigs := make([][]byte, distinct)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("distinct message %d", i))
			var err error
			sigs[i], err = ECDSA{}.Sign(kp.Private, msgs[i])
			if err != nil {
				b.Fatal(err)
			}
		}
		// Results stay cold (each iteration re-keys by message), keys warm.
		c.results = nil
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.verifyMiss(kp.Public, msgs[i%distinct], sigs[i%distinct]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-result", func(b *testing.B) {
		c := NewCached(ECDSA{}, CacheOptions{})
		if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Verify(kp.Public, msg, sigBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
}
