package replica

import (
	"fmt"
	"testing"
	"time"
)

func TestWithDefaultsFillsAndClamps(t *testing.T) {
	cases := []struct {
		in      Config
		nodes   int
		n, w, r int
	}{
		{Config{}, 5, 3, 2, 2},                 // defaults
		{Config{}, 2, 2, 2, 2},                 // N and the default quorums clamped to the cluster
		{Config{N: 5, W: 1, R: 1}, 5, 5, 1, 5}, // R raised until W+R > N
		{Config{N: 3, W: 3, R: 3}, 2, 2, 2, 2}, // everything clamped to 2 nodes
		{Config{N: 4, W: 2, R: 2}, 4, 4, 2, 3}, // W+R == N is not enough overlap
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%+v@%d", c.in, c.nodes), func(t *testing.T) {
			got := c.in.WithDefaults(c.nodes)
			if got.N != c.n || got.W != c.w || got.R != c.r {
				t.Fatalf("got %d/%d/%d, want %d/%d/%d", got.N, got.W, got.R, c.n, c.w, c.r)
			}
			if got.W+got.R <= got.N {
				t.Fatalf("quorums do not overlap: %d/%d/%d", got.N, got.W, got.R)
			}
			if got.SweepInterval == 0 || got.LeaseTTL <= 0 {
				t.Fatalf("defaults not filled: %+v", got)
			}
		})
	}
}

func TestWithDefaultsKeepsSweepDisabled(t *testing.T) {
	got := Config{SweepInterval: SweepDisabled}.WithDefaults(3)
	if got.SweepInterval != SweepDisabled {
		t.Fatalf("SweepDisabled overwritten: %v", got.SweepInterval)
	}
}

func TestDigestOrderAndContentSensitive(t *testing.T) {
	key1, key2 := []byte("k1.............................."), []byte("k2..............................")
	sum := func(build func(*Digest)) [32]byte {
		d := NewDigest()
		build(d)
		s, _ := d.Sum()
		return s
	}
	a := sum(func(d *Digest) { d.Record(key1, 1); d.Record(key2, 2) })
	b := sum(func(d *Digest) { d.Record(key1, 1); d.Record(key2, 2) })
	if a != b {
		t.Fatal("identical input digests differ")
	}
	if a == sum(func(d *Digest) { d.Record(key2, 2); d.Record(key1, 1) }) {
		t.Fatal("digest insensitive to order")
	}
	if a == sum(func(d *Digest) { d.Record(key1, 1); d.Record(key2, 3) }) {
		t.Fatal("digest insensitive to version")
	}
	if a == sum(func(d *Digest) { d.Record(key1, 1); d.Record(key2, 2); d.Subs(key1, []string{"w"}) }) {
		t.Fatal("digest insensitive to watcher sets")
	}
	_, cnt := func() ([32]byte, uint64) {
		d := NewDigest()
		d.Record(key1, 1)
		d.Subs(key1, []string{"w"})
		return d.Sum()
	}()
	if cnt != 2 {
		t.Fatalf("count = %d, want 2", cnt)
	}
}

func TestLeaseCacheHitAndExpiry(t *testing.T) {
	c := NewLeaseCache(30*time.Millisecond, 8)
	key := [32]byte{1}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, "v1", 1, 0)
	if v, ok := c.Get(key); !ok || v != "v1" {
		t.Fatalf("get = %v, %v", v, ok)
	}
	time.Sleep(40 * time.Millisecond)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after TTL")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestLeaseCacheGrantCapsTTL(t *testing.T) {
	c := NewLeaseCache(time.Hour, 8)
	key := [32]byte{2}
	c.Put(key, "v", 1, 10*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	if _, ok := c.Get(key); ok {
		t.Fatal("grant did not cap the lease")
	}
}

// TestLeaseCacheWatermarkRefusesBackwards is the stale-quorum-read detector:
// after an entry lapses, the version watermark survives, and an older record
// arriving later is refused and counted.
func TestLeaseCacheWatermarkRefusesBackwards(t *testing.T) {
	c := NewLeaseCache(10*time.Millisecond, 8)
	key := [32]byte{3}
	c.Put(key, "v5", 5, 0)
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get(key); ok {
		t.Fatal("lease should have lapsed")
	}
	if c.Put(key, "v3", 3, 0) {
		t.Fatal("backwards-in-time put accepted")
	}
	if _, _, stale := c.Stats(); stale != 1 {
		t.Fatalf("stale = %d, want 1", stale)
	}
	if !c.Put(key, "v5b", 5, 0) {
		t.Fatal("same-version put refused")
	}
	if v, ok := c.Get(key); !ok || v != "v5b" {
		t.Fatalf("get after refresh = %v, %v", v, ok)
	}
}

func TestLeaseCacheCapEvicts(t *testing.T) {
	c := NewLeaseCache(time.Hour, 4)
	for i := 0; i < 10; i++ {
		c.Put([32]byte{byte(i)}, i, 1, 0)
	}
	if c.Len() > 4 {
		t.Fatalf("len = %d, want ≤ 4", c.Len())
	}
}

func TestLeaseCacheInvalidateKeepsWatermark(t *testing.T) {
	c := NewLeaseCache(time.Hour, 8)
	key := [32]byte{4}
	c.Put(key, "v7", 7, 0)
	c.Invalidate(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after invalidate")
	}
	if c.Put(key, "v2", 2, 0) {
		t.Fatal("watermark lost on invalidate")
	}
}
