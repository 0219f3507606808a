package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"whopay/internal/store"
)

// Cached decorates a Scheme with the verification fast path (DESIGN.md §9).
// Table 2 of the paper shows signature verification dominating per-transfer
// cost, and WhoPay re-verifies the same immutable artifacts — broker coin
// certs, bindings, group-signature credentials — on every hop, deposit,
// sync, and audit. Cached removes the repeated work three ways:
//
//  1. Decoded public keys are memoized in a bounded sharded LRU, so a
//     KeyDecoder scheme (ECDSA) pays the SEC1 parse + on-curve check once
//     per key instead of once per Verify. Ed25519, the production scheme,
//     has no decode step; for it this layer is empty and revocation rests
//     on the generation bump alone.
//  2. *Positive* verify results are memoized keyed by a SHA-256 over
//     (epoch ‖ key-generation ‖ pub ‖ msg ‖ sig). Sound because Verify is a
//     deterministic predicate over immutable bytes: the same triple can
//     never change from valid to invalid except by revocation, which bumps
//     the generation (InvalidateKey) or epoch (Invalidate) and so changes
//     the cache key. Negative results are NEVER cached — a retried or
//     corrected message must re-run real crypto.
//  3. VerifyBatch fans independent checks out across a small worker pool
//     for the multi-signature call sites (deposit chain checks, layered
//     per-layer walks, credential + member pairs).
//
// Sign and GenerateKey pass straight through — only verification is a pure
// function of its inputs. A Null inner scheme bypasses the cache entirely:
// Null verifies are already two SHA-256s, and the simulator depends on every
// operation actually executing. Cached is safe for concurrent use.
type Cached struct {
	inner   Scheme
	dec     KeyDecoder // nil when inner has no cacheable decode step
	bypass  bool       // inner is Null: pass everything through
	workers int

	keys    *store.LRU[string, any]        // pub bytes → decoded key
	results *store.LRU[string, struct{}]   // result digest → known-valid
	epoch   atomic.Uint64                  // bumped by Invalidate
	gens    *store.Sharded[string, uint64] // pub → generation (revocations only)

	// hit/miss tallies (obs exposition); not counted on the bypass path,
	// where the cache does nothing worth measuring.
	hits      atomic.Int64
	misses    atomic.Int64
	keyHits   atomic.Int64
	keyMisses atomic.Int64
}

// CacheStats is a point-in-time read of the cache's hit/miss tallies.
type CacheStats struct {
	Hits, Misses       int64 // memoized-result cache
	KeyHits, KeyMisses int64 // decoded-key cache
}

// Stats returns the current hit/miss tallies. Safe for concurrent use.
func (c *Cached) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		KeyHits:   c.keyHits.Load(),
		KeyMisses: c.keyMisses.Load(),
	}
}

var (
	_ Scheme        = (*Cached)(nil)
	_ BatchVerifier = (*Cached)(nil)
)

// CacheOptions bounds and tunes a Cached scheme. Zero values select
// defaults.
type CacheOptions struct {
	// KeyCapacity bounds the decoded-key LRU (default 4096 keys — each
	// entry is a parsed P-256 point, so this is a few hundred KB).
	KeyCapacity int
	// ResultCapacity bounds the positive-verify LRU (default 65536
	// digests, ~2 MB of 32-byte keys).
	ResultCapacity int
	// Shards is the lock-domain count per LRU (default store.DefaultShards).
	Shards int
	// Workers caps VerifyBatch fan-out (default GOMAXPROCS; 1 forces
	// sequential batches).
	Workers int
}

// NewCached wraps inner with the verification fast path. The wrapper keeps
// inner's Name so scheme identity is transparent to callers and wire
// formats.
func NewCached(inner Scheme, opts CacheOptions) *Cached {
	if opts.KeyCapacity <= 0 {
		opts.KeyCapacity = 4096
	}
	if opts.ResultCapacity <= 0 {
		opts.ResultCapacity = 65536
	}
	if opts.Shards <= 0 {
		opts.Shards = store.DefaultShards
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	dec, _ := inner.(KeyDecoder)
	return &Cached{
		inner:   inner,
		dec:     dec,
		bypass:  inner.Name() == "null",
		workers: opts.Workers,
		keys:    store.NewLRU[string, any](opts.KeyCapacity, opts.Shards, store.StringHash[string]),
		results: store.NewLRU[string, struct{}](opts.ResultCapacity, opts.Shards, store.StringHash[string]),
		gens:    store.NewSharded[string, uint64](opts.Shards, store.StringHash[string]),
	}
}

// NewCachedSuite wraps s.Scheme with NewCached, keeping the recorder. It
// returns the new suite and the cache handle for invalidation hooks.
// Recording stays at the Suite layer, so cached verifies are still counted:
// the cache changes what a verify costs, not how many the protocol performs.
func NewCachedSuite(s Suite, opts CacheOptions) (Suite, *Cached) {
	c := NewCached(s.Scheme, opts)
	return Suite{Scheme: c, Rec: s.Rec}, c
}

// Name implements Scheme. It reports the inner scheme's name: Cached is an
// execution strategy, not a different algorithm.
func (c *Cached) Name() string { return c.inner.Name() }

// GenerateKey implements Scheme by delegation.
func (c *Cached) GenerateKey() (KeyPair, error) { return c.inner.GenerateKey() }

// Sign implements Scheme by delegation — signatures may be randomized, so
// there is nothing sound to memoize.
func (c *Cached) Sign(priv PrivateKey, msg []byte) ([]byte, error) {
	return c.inner.Sign(priv, msg)
}

// Verify implements Scheme. A memoized positive result short-circuits; a
// miss runs real crypto (through the decoded-key cache when available) and
// memoizes only success.
func (c *Cached) Verify(pub PublicKey, msg []byte, sigBytes []byte) error {
	if c.bypass {
		return c.inner.Verify(pub, msg, sigBytes)
	}
	rk := c.resultKey(pub, msg, sigBytes)
	if _, ok := c.results.Get(rk); ok {
		c.hits.Add(1)
		return nil
	}
	c.misses.Add(1)
	if err := c.verifyMiss(pub, msg, sigBytes); err != nil {
		return err
	}
	c.results.Add(rk, struct{}{})
	return nil
}

// verifyMiss performs a real verification, going through the decoded-key
// cache when the scheme exposes one.
func (c *Cached) verifyMiss(pub PublicKey, msg []byte, sigBytes []byte) error {
	if c.dec == nil {
		return c.inner.Verify(pub, msg, sigBytes)
	}
	ck := string(pub)
	if dk, ok := c.keys.Get(ck); ok {
		c.keyHits.Add(1)
		return c.dec.VerifyDecoded(dk, msg, sigBytes)
	}
	c.keyMisses.Add(1)
	dk, err := c.dec.DecodePublic(pub)
	if err != nil {
		// Malformed keys are not cached: the decode error IS the
		// verification result and it recurs cheaply.
		return err
	}
	c.keys.Add(ck, dk)
	return c.dec.VerifyDecoded(dk, msg, sigBytes)
}

// VerifyBatch implements BatchVerifier, fanning jobs out across the worker
// pool. Each job takes the same hit/miss path as Verify, so a batch warms
// the cache for the next one.
func (c *Cached) VerifyBatch(jobs []VerifyJob) []error {
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return errs
	}
	if c.bypass || c.workers <= 1 || len(jobs) == 1 {
		for i, j := range jobs {
			errs[i] = c.Verify(j.Pub, j.Msg, j.Sig)
		}
		return errs
	}
	fanOut(func(j VerifyJob) error { return c.Verify(j.Pub, j.Msg, j.Sig) }, jobs, c.workers, errs)
	return errs
}

// InvalidateKey forgets everything memoized about pub: its decoded form and,
// by bumping the key's generation, every positive verify result involving
// it (stale digests become unreachable and age out of the LRU). Call it when
// a key is revoked — e.g. a group credential whose serial lands on the CRL.
func (c *Cached) InvalidateKey(pub PublicKey) {
	if c.bypass {
		return
	}
	c.gens.Compute(string(pub), func(cur uint64, _ bool) (uint64, store.Op) {
		return cur + 1, store.OpSet
	})
	c.keys.Remove(string(pub))
}

// Invalidate drops the entire cache — decoded keys and memoized results —
// and bumps the epoch so in-flight writers with pre-bump cache keys cannot
// resurrect stale entries. Call it on group-key rotation.
func (c *Cached) Invalidate() {
	if c.bypass {
		return
	}
	c.epoch.Add(1)
	c.results.Purge()
	c.keys.Purge()
}

// ResultLen reports the number of memoized positive results (tests and
// metrics).
func (c *Cached) ResultLen() int { return c.results.Len() }

// KeyLen reports the number of memoized decoded keys (tests and metrics).
func (c *Cached) KeyLen() int { return c.keys.Len() }

// resultKey builds the memoization digest. Every variable-length field is
// length-prefixed so (pub, msg, sig) boundaries are unambiguous, and the
// epoch and per-key generation are mixed in so invalidation re-keys the
// space instead of racing deletions against concurrent inserts.
func (c *Cached) resultKey(pub PublicKey, msg, sigBytes []byte) string {
	gen, _ := c.gens.Get(string(pub))
	h := sha256.New()
	var buf [8]byte
	h.Write([]byte("whopay/sig/result-cache/1"))
	binary.BigEndian.PutUint64(buf[:], c.epoch.Load())
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], gen)
	h.Write(buf[:])
	for _, field := range [][]byte{pub, msg, sigBytes} {
		binary.BigEndian.PutUint64(buf[:], uint64(len(field)))
		h.Write(buf[:])
		h.Write(field)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return string(out[:])
}
