package dht

import (
	"testing"
	"time"

	"whopay/internal/dht/replica"
)

// The hot-coin read path, three ways: lease-cached quorum reads (the
// DESIGN.md §14 fast path), uncached quorum reads (every Get pays R
// probes), and the legacy single-copy read. The lease numbers are the
// evidence behind results/dht_replica_bench.txt.

func BenchmarkGetHotLeaseCached(b *testing.B) {
	f, c := replicatedFixture(b, 3, replica.Config{N: 3, W: 2, R: 2, LeaseTTL: time.Second}, false, 0)
	_, rec := f.ownedRecord(b, 1, "hot-coin-binding")
	if err := c.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := c.Get(rec.Key); err != nil || !found {
			b.Fatalf("get = %v, %v", found, err)
		}
	}
}

func BenchmarkGetHotQuorumUncached(b *testing.B) {
	f, c := replicatedFixture(b, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	_, rec := f.ownedRecord(b, 1, "hot-coin-binding")
	if err := c.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := c.quorumGet(rec.Key); err != nil || !found {
			b.Fatalf("quorum get = %v, %v", found, err)
		}
	}
}

func BenchmarkGetHotLegacySingleCopy(b *testing.B) {
	f, c := newFixture(b, 3, 3, OneHop)
	_, rec := f.ownedRecord(b, 1, "hot-coin-binding")
	if err := c.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := c.Get(rec.Key); err != nil || !found {
			b.Fatalf("get = %v, %v", found, err)
		}
	}
}

func BenchmarkQuorumPut(b *testing.B) {
	f, c := replicatedFixture(b, 3, replica.Config{N: 3, W: 2, R: 2}, false, 0)
	kp, rec := f.ownedRecord(b, 1, "binding")
	if err := c.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := SignRecord(f.suite, kp, rec.Key, uint64(i+2), []byte("binding"))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Put(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleCopyPut(b *testing.B) {
	f, c := newFixture(b, 3, 3, OneHop)
	kp, rec := f.ownedRecord(b, 1, "binding")
	if err := c.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := SignRecord(f.suite, kp, rec.Key, uint64(i+2), []byte("binding"))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Put(r); err != nil {
			b.Fatal(err)
		}
	}
}
