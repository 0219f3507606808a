// Package replica holds the building blocks of the DHT replication
// subsystem (DESIGN.md §14): the quorum parameters, the range digest
// anti-entropy compares replicas with, and the TTL lease cache hot readers
// shed load through. The pieces are deliberately free of DHT types — the
// dht package wires them through Node, Client, and Cluster — so the quorum
// arithmetic and cache policy stay testable in isolation.
//
// The consistency model is classic N/W/R (Hoepman's replicated-witness
// analysis; Dynamo's sloppy-quorum ancestry without the sloppiness): a
// write commits on W of N replicas before acking, a read consults R, and
// W+R > N guarantees every read quorum overlaps every committed write
// quorum — so a completed quorum write is never followed by a quorum read
// returning an older version, which is exactly the double-spend window the
// paper's real-time detection must not have.
package replica

import "time"

// Defaults. 3/2/2 is the smallest configuration that survives one node
// failure on both paths while keeping read and write quorums overlapping.
const (
	DefaultN = 3
	DefaultW = 2
	DefaultR = 2
	// DefaultSweepInterval paces the background anti-entropy sweep.
	DefaultSweepInterval = 250 * time.Millisecond
	// DefaultLeaseTTL bounds how stale a lease-cached read may be: the
	// worst-case real-time-detection delay a reader trades for shedding
	// the hot-coin read storm.
	DefaultLeaseTTL = 150 * time.Millisecond
	// DefaultLeaseCap bounds every DHT client's lease-cache entry count.
	DefaultLeaseCap = 4096
)

// SweepDisabled turns the background sweeper off (manual SweepOnce only —
// what deterministic tests use).
const SweepDisabled = time.Duration(-1)

// Config configures the replication subsystem. The zero value of every
// field means "use the default", and a nil *Config anywhere in the stack
// means the zero Config: 3/2/2 clamped to the ring. N = W = R = 1 keeps one
// copy per key on the same quorum path.
type Config struct {
	// N is the replica-set size, W the write quorum, R the read quorum.
	N, W, R int
	// SweepInterval paces the per-node anti-entropy sweep (0: default;
	// SweepDisabled: background sweeping off).
	SweepInterval time.Duration
	// LeaseTTL is both the grant a node attaches to lease reads and the
	// cap a client applies to cached entries.
	LeaseTTL time.Duration
}

// WithDefaults fills zero fields and clamps the quorums to a cluster of
// the given size: N ≤ nodes, 1 ≤ W ≤ N, 1 ≤ R ≤ N, and R is raised until
// W+R > N so the overlap guarantee survives aggressive hand-tuning.
func (c Config) WithDefaults(nodes int) Config {
	if c.N <= 0 {
		c.N = DefaultN
	}
	if nodes > 0 && c.N > nodes {
		c.N = nodes
	}
	if c.W <= 0 {
		c.W = DefaultW
	}
	if c.W > c.N {
		c.W = c.N
	}
	if c.R <= 0 {
		c.R = DefaultR
	}
	if c.R > c.N {
		c.R = c.N
	}
	if c.W+c.R <= c.N {
		c.R = c.N - c.W + 1
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = DefaultSweepInterval
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	return c
}
