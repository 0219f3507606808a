package core

import (
	"fmt"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// Deposits (DESIGN.md §12). Every deposit pays three signature
// verifications and, on a persisted broker, one WAL append with its fsync.
// flushDeposits is the broker's only deposit code: a DepositRequest is
// served as a flush of one on its handler goroutine, and a
// BatchDepositRequest as a flush of its entries. A flush fans the group's
// checks into one sig.VerifyBatch and commits the group under one
// wal.EncodeBatch record, demultiplexing per-request errors so one bad
// deposit rejects alone. Nothing is queued: amortization happens only when
// the depositor sends a batch.

// maxDepositBatch is the most deposits one BatchDepositRequest may carry:
// it bounds the verify fan-out and the journal record a single request
// can demand. Peer.DepositMany splits larger groups to fit.
const maxDepositBatch = 64

// depositResult is one deposit's outcome, exactly what dispatch returns.
type depositResult struct {
	resp any
	err  error
}

// depositOccupancyBounds buckets flush occupancy by batch size. The
// histogram rides the duration-valued Observe API: occupancy n is recorded
// as n seconds, so bucket bounds read directly as batch sizes and the
// series sum is the total number of deposits flushed.
var depositOccupancyBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// pendingDeposit is a request that survived per-request validation and
// awaits the group verify + commit.
type pendingDeposit struct {
	c   *coin.Coin
	cur *coin.Binding
}

// flushDeposits serves a group of deposits as one unit: per-request
// validation in arrival order, one signature-batch fan-out across the
// whole group, one atomic WAL record covering every commit, then
// per-request demux. Each deposit's outcome matches what serving the
// requests one at a time in the same order would have produced.
func (b *Broker) flushDeposits(reqs []DepositRequest) []depositResult {
	results := make([]depositResult, len(reqs))
	pending := make([]*pendingDeposit, len(reqs))
	claimed := make(map[coin.ID]bool, len(reqs))
	var deferred []int // within-batch duplicates, replayed after the commit
	var jobs []sig.VerifyJob
	var order []int // jobs[3k..3k+2] belong to reqs[order[k]]

	// Stage one: per-request validation up to (and including) the
	// revoked-credential precheck. A coin an earlier entry already claimed
	// is deferred to a replay after the commit, so its fraud case and error
	// come out exactly as one-at-a-time execution would have produced them.
	for i := range reqs {
		m := &reqs[i]
		id := coin.ID(m.CoinPub)
		if claimed[id] {
			deferred = append(deferred, i)
			continue
		}
		c, ok := b.coins.Get(id)
		if !ok {
			results[i] = depositResult{err: ErrUnknownCoin}
			continue
		}
		if m.PresentedBinding == nil {
			// Checked before the double-deposit case, whose evidence
			// needs the presented binding.
			results[i] = depositResult{err: fmt.Errorf("%w: no binding presented", ErrBadRequest)}
			continue
		}
		if prior, _ := b.deposited.Get(id); prior != nil {
			b.recordCase(FraudCase{
				Kind:    "double-deposit",
				CoinID:  c.ID(),
				Verdict: "second deposit rejected; group signatures escrowed for the judge",
				GroupSigs: [][2]any{
					{depositMessage(m.CoinPub, prior.payoutRef, prior.binding.Seq), prior.groupSig},
					{depositMessage(m.CoinPub, m.PayoutRef, m.PresentedBinding.Seq), m.GroupSig},
				},
				Bindings: []coin.Binding{*prior.binding, *m.PresentedBinding},
			})
			results[i] = depositResult{err: ErrAlreadyDeposited}
			continue
		}
		cur, err := b.currentBinding(c, m.PresentedBinding)
		if err != nil {
			results[i] = depositResult{err: err}
			continue
		}
		msg := depositMessage(m.CoinPub, m.PayoutRef, cur.Seq)
		if err := precheckHolderAndGroup(b.suite, b.gsv, cur.Holder, msg, m.HolderSig, m.GroupSig); err != nil {
			results[i] = depositResult{err: err}
			continue
		}
		claimed[id] = true
		pending[i] = &pendingDeposit{c: c, cur: cur}
		jobs = appendHolderAndGroupJobs(jobs, b.cfg.GroupPub, cur.Holder, msg, m.HolderSig, m.GroupSig)
		order = append(order, i)
	}
	b.depositFlushes.Inc()
	b.depositOccupancy.Observe(time.Duration(len(reqs)-len(deferred)) * time.Second)

	// Stage two: one verify fan-out over the whole group, demultiplexed
	// per request.
	if len(jobs) > 0 {
		errs := sig.VerifyBatch(b.suite.Scheme, jobs)
		for k, i := range order {
			if err := holderAndGroupErr(errs[3*k : 3*k+3]); err != nil {
				results[i] = depositResult{err: err}
				pending[i] = nil
			}
		}
	}

	// Stage three: commit in arrival order. Inserts go to the embedded
	// store (bypassing per-operation journaling) and the journal records
	// accumulate into ONE atomic batch appended before any response is
	// built: journal-before-response, at one fsync for the whole group.
	var muts []wal.Mutation
	var committed []int
	for i := range reqs {
		p := pending[i]
		if p == nil {
			continue
		}
		m := &reqs[i]
		id := coin.ID(m.CoinPub)
		rec := &depositRecord{
			binding:   p.cur.Clone(),
			groupSig:  m.GroupSig,
			payoutRef: m.PayoutRef,
			when:      b.cfg.Clock(),
		}
		if !b.deposited.Sharded.Insert(id, rec) {
			results[i] = depositResult{err: ErrAlreadyDeposited}
			continue
		}
		if b.persist != nil {
			val, err := encDepositRecord(rec)
			if err != nil {
				b.persist.fail(err)
			} else {
				muts = append(muts, wal.Set(tblDeposit, []byte(id), val))
			}
		}
		committed = append(committed, i)
	}
	if b.persist != nil {
		b.persist.batch(muts...)
	}
	for _, i := range committed {
		m := &reqs[i]
		p := pending[i]
		id := coin.ID(m.CoinPub)
		b.creditPayout(id, m.PayoutRef, p.c.Value)
		b.depositedValue.Add(p.c.Value)
		b.downtime.Delete(id)
		// A deposited coin can never be serviced again (lookupActiveCoin
		// refuses first), so its service lock is garbage: evict it.
		b.evictServiceLock(id)
		b.ops.Inc(OpDeposit)
		results[i] = depositResult{resp: DepositResponse{Amount: p.c.Value}}
	}

	// Within-batch duplicates replay as a flush of their own after the
	// commit: the first claim is now visible in the deposited store, so
	// each replayed entry takes the double-deposit (or, when the first
	// claim failed verification, the clean) path one-at-a-time execution
	// would have. The recursion ends because the first entry for a coin
	// in any round is never deferred.
	if len(deferred) > 0 {
		again := make([]DepositRequest, len(deferred))
		for j, i := range deferred {
			again[j] = reqs[i]
		}
		for j, r := range b.flushDeposits(again) {
			results[deferred[j]] = r
		}
	}
	return results
}

// handleBatchDeposit serves an explicit batch-deposit message: the whole
// group goes through one flush, and each deposit's outcome is reported
// individually.
func (b *Broker) handleBatchDeposit(m BatchDepositRequest) (any, error) {
	if len(m.Deposits) == 0 {
		return nil, fmt.Errorf("%w: empty deposit batch", ErrBadRequest)
	}
	if len(m.Deposits) > maxDepositBatch {
		return nil, fmt.Errorf("%w: deposit batch of %d exceeds %d", ErrBadRequest, len(m.Deposits), maxDepositBatch)
	}
	results := b.flushDeposits(m.Deposits)
	out := make([]BatchDepositResult, len(results))
	for i, r := range results {
		if r.err != nil {
			out[i] = BatchDepositResult{ErrCode: bus.ErrorCode(r.err), ErrMsg: r.err.Error()}
			continue
		}
		dr, _ := r.resp.(DepositResponse)
		out[i] = BatchDepositResult{Amount: dr.Amount}
	}
	return BatchDepositResponse{Results: out}, nil
}
