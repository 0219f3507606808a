# WhoPay build/test entry points. Everything is plain `go` underneath;
# these targets just bundle the flags the repo's CI and the chaos suite
# expect.

GO ?= go

# Optional: make chaos CHAOS_SEED=42 replays one failing schedule.
CHAOS_SEED ?=
# Optional: make crash-suite CRASH_SEED=42 pins the crash sweep's sampling
# seed (only matters once journals outgrow the exhaustive-sweep cap).
CRASH_SEED ?=

.PHONY: all vet build test race chaos crash-suite dht-suite bench bench-concurrent bench-wal bench-obs bench-wire bench-deposit bench-dht bench-e2e bench-quick bench-compare bench-pair fuzz-wire load-smoke load-failover load-dht

all: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Full suite under the race detector — the locking discipline is part of
# the protocol's correctness story, so plain `go test` is not enough.
test: vet build
	$(GO) test -race ./...

race:
	$(GO) test -race ./internal/bus/... ./internal/core/... ./internal/obs/ ./internal/federation/ ./bench

# Fault-injection smoke: the chaos lifecycles, retry-enabled chaos, and the
# seed-reproducibility check. WHOPAY_CHAOS_SEED is honored when CHAOS_SEED
# is set.
chaos:
	WHOPAY_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v \
		-run 'TestChaos' ./internal/core/

# Crash-injection suite: the WAL's own unit tests, byte-level crash sweeps
# for broker and peer (every byte boundary of the journal while it fits the
# exhaustive cap), corrupt-tail recovery, the DHT restart/epoch-fence
# tests, and the journal-record round-trip net (TestGobRoundTripByteStable,
# TestOldFormatJournalRejected). A failing sweep budget prints the
# WHOPAY_CRASH_BUDGET=<n> WHOPAY_CRASH_SEED=<n> pair that replays it.
crash-suite:
	$(GO) test -race -count=1 ./internal/wal/...
	WHOPAY_CRASH_SEED=$(CRASH_SEED) $(GO) test -race -count=1 \
		-run 'Crash|CorruptTail|GobRoundTrip|OldFormatJournal|WALBatch' ./internal/core/
	$(GO) test -race -count=1 -run 'Restart|Epoch' ./internal/dht/

# Replication suite for the double-spend DHT (DESIGN.md §14): the replica
# package units (quorum math, digests, the lease cache), the quorum
# write/read, read-repair, anti-entropy, and sub-failover tests, the
# seeded node-kill property test, and the core-level chaos extension that
# crash-stops a replica mid-transfer-storm. WHOPAY_CHAOS_SEED is honored
# when CHAOS_SEED is set.
dht-suite:
	$(GO) test -race -count=1 ./internal/dht/...
	WHOPAY_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v \
		-run 'TestChaosDHTNodeKill' ./internal/core/

# Open-loop load smoke: a small steady-profile run plus a micropay run
# (payword channels and their settlement deposits) against a live tcpbus broker
# (wal-off), strict-gated — any protocol error outside the scenario's
# expected set, any unclassified error, or any post-run ledger audit
# violation (conservation, no-double-spend) fails the target. The
# BENCH_load_<scenario>.json artifacts land under bench-out/.
load-smoke:
	$(GO) run ./cmd/whopay-bench -load -scenario steady \
		-actors 40 -rate 120/s -load-duration 20s -strict -out bench-out
	$(GO) run ./cmd/whopay-bench -load -scenario micropay \
		-actors 24 -rate 120/s -load-duration 15s -strict -out bench-out

# Federated failover under load: a 2-shard × 2-replica trust root with two
# shard leaders crashed mid-run. The strict gate plus the post-run audit
# prove a promoted follower lost no committed state; the artifact's
# "failover" section records time-to-recover per kill and the client
# redirect rate. Runs twice — wal-off and fsync-per-commit journals — so
# both BENCH_load_broker_failover[_wal].json land under bench-out/.
load-failover:
	$(GO) run ./cmd/whopay-bench -load -scenario broker-failover \
		-actors 24 -rate 120/s -load-duration 15s -strict -out bench-out
	$(GO) run ./cmd/whopay-bench -load -scenario broker-failover \
		-actors 24 -rate 120/s -load-duration 15s -wal -fsync always \
		-strict -out bench-out

# DHT replica crash under open-loop load: a 3/2/2-replicated journaled
# ring with one node crash-stopped mid-run and recovered by anti-entropy.
# The strict gate plus the audit require zero double-spends, zero stale
# quorum reads, and digest parity across the replica set before the run
# ends; BENCH_load_dht_node_kill.json lands under bench-out/.
load-dht:
	$(GO) run ./cmd/whopay-bench -load -scenario dht-node-kill \
		-actors 24 -rate 120/s -load-duration 15s -strict -out bench-out

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md): four
# closed-loop workloads, five end-to-end metrics, per-layer attribution
# from a traced run. bench-e2e is the command the regression gate runs;
# bench-quick is its one-second-phase smoke pass — a check that the harness
# still builds and audits clean, not a measurement.
bench-e2e:
	bash bench/run.sh

bench-quick:
	$(GO) run ./bench -quick

# The full benchmark judged against the committed baseline: bench-out/BENCH.json
# is -compare'd with BENCH_baseline.json (better/same/worse per workload and
# end-to-end metric; non-zero exit on any worse). Refresh the baseline by
# copying a full run's bench-out/BENCH.json over it.
bench-compare: bench-e2e
	$(GO) run ./bench -compare BENCH_baseline.json bench-out/BENCH.json

# Paired parent/change runs of one workload (bench/README.md, "Comparing two
# versions"): make bench-pair PARENT=<rev> [WORKLOAD=steady] [PAIRS=10].
# Prints per-pair values, wins, both medians and the parent's IQR for the
# five end-to-end metrics.
PARENT ?= HEAD
WORKLOAD ?= steady
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# WAL overhead on transfer and deposit, per fsync policy. Reference
# numbers live in results/wal_bench.txt.
bench-wal:
	$(GO) test ./internal/core/ -run '^$$' -bench WAL -benchtime 2000x -count 3

# Observability overhead on the transfer hop: registry off vs on, under
# the production scheme (sig.Default, Ed25519) and the null-crypto
# skeleton. The reference numbers in results/obs_bench.txt were measured
# under ECDSA P-256, before Ed25519 became the production scheme.
bench-obs:
	$(GO) test ./internal/core/ -run '^$$' \
		-bench 'BenchmarkTransfer(WhoPay|Obs)' -benchtime 1s -count 3

# Wire codec as a micro-benchmark (one TransferRequest) and end to end (one
# transfer hop over TCP). Reference numbers live in results/wire_bench.txt.
bench-wire:
	$(GO) test ./internal/core/ -run '^$$' \
		-bench 'BenchmarkWireCodecTransferRequest|BenchmarkTransferWhoPayTCP' \
		-benchmem -benchtime 2s

# Short fuzz pass over the frame decoder, the registered-codec decoder, and
# the journal-record decoders — the corpus regression net plus a fixed
# wall-clock budget of new inputs. CI runs this; longer local runs just
# raise FUZZ_TIME.
FUZZ_TIME ?= 20s
fuzz-wire:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseFrame -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzWireDecodeRegistered -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzJournalRecordDecode -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/payword/ -run '^$$' -fuzz FuzzPaywordSpend -fuzztime $(FUZZ_TIME)

# Deposit amortization: broker deposits/sec under an fsync-per-commit
# journal, 64 concurrent single Deposit callers (one flush and one fsync
# each) vs DepositMany of 64 (one signature fan-out and one journal append
# per group). Reference numbers live in results/deposit_bench.txt.
bench-deposit:
	$(GO) test ./internal/core/ -run '^$$' \
		-bench BenchmarkDepositBatch -benchtime 1000x -count 3

# Hot-coin read path, three ways: lease-cached quorum reads, uncached
# quorum reads, and the legacy single-copy read — plus quorum vs legacy
# put. Reference numbers live in results/dht_replica_bench.txt.
bench-dht:
	$(GO) test ./internal/dht/ -run '^$$' \
		-bench 'BenchmarkGetHot|BenchmarkQuorumPut|BenchmarkSingleCopyPut' \
		-benchtime 1s -count 3

# Goroutine-sweep benchmarks for the sharded state store: broker purchase
# and owner transfer throughput as client concurrency grows. Reference
# numbers live in results/concurrency_bench.txt.
bench-concurrent:
	$(GO) test ./internal/core/ -run '^$$' \
		-bench 'BenchmarkBrokerConcurrentPurchase|BenchmarkOwnerConcurrentTransfer' \
		-cpu 1,2,4,8 -benchtime 2s
