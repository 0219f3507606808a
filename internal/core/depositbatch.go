package core

import (
	"fmt"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/groupsig"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// Deposit batching (DESIGN.md §12). Every deposit pays three signature
// verifications and, on a persisted broker, one WAL append with its fsync.
// Both amortize: sig.VerifyBatch fans a whole group's checks into one
// scheme-level batch, and wal.EncodeBatch commits a whole group's records
// in one atomic append. The batcher batches on backpressure, never on a
// timer: the worker takes the first queued deposit, drains whatever else is
// already queued (up to MaxBatch), and flushes the group through one verify
// fan-out and one journal record, demultiplexing per-request errors so one
// bad deposit rejects alone. A lone deposit is never delayed; under load
// the batch is whatever arrived during the previous flush.
//
// The stage is default-off: a nil BrokerConfig.DepositBatch keeps every
// deposit on the sequential handleDeposit path with behavior and error
// shapes identical to before this file existed. With batching on, the
// per-request outcomes (responses, errors, fraud cases, recorded crypto
// micro-ops) still match what sequential execution in arrival order would
// have produced; only the latency and journaling cadence change.

// DefaultDepositBatch is the flush size used when DepositBatchConfig
// leaves MaxBatch zero.
const DefaultDepositBatch = 64

// DepositBatchConfig sizes the broker's deposit-batching stage.
type DepositBatchConfig struct {
	// MaxBatch is the most deposits one flush serves (default
	// DefaultDepositBatch).
	MaxBatch int
}

// depositJob carries one queued deposit and its reply channel.
type depositJob struct {
	req  DepositRequest
	resp chan depositResult
}

// depositResult is one deposit's outcome, exactly what dispatch returns.
type depositResult struct {
	resp any
	err  error
}

// depositBatcher is the queue + single flush worker. One worker keeps
// commit order deterministic (arrival order) without any cross-request
// locking; the expensive work inside a flush — the signature batch — fans
// out in parallel under a BatchVerifier scheme on its own.
type depositBatcher struct {
	b    *Broker
	cfg  DepositBatchConfig
	jobs chan depositJob
	quit chan struct{}
	done chan struct{}

	occupancy *obs.Histogram // deposits per flush (bucket = batch size)
	flushes   *obs.Counter
}

// depositOccupancyBounds buckets flush occupancy by batch size. The
// histogram rides the duration-valued Observe API: occupancy n is recorded
// as n seconds, so bucket bounds read directly as batch sizes and the
// series sum is the total number of deposits flushed through batches.
var depositOccupancyBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

func newDepositBatcher(b *Broker, cfg DepositBatchConfig) *depositBatcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultDepositBatch
	}
	q := &depositBatcher{
		b:    b,
		cfg:  cfg,
		jobs: make(chan depositJob, 4*cfg.MaxBatch),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if reg := b.cfg.Obs; reg != nil {
		reg.Help("whopay_broker_deposit_batch_occupancy",
			"Deposits per batch flush, bucketed by batch size (the sum counts deposits flushed).")
		q.occupancy = reg.Histogram("whopay_broker_deposit_batch_occupancy", nil, depositOccupancyBounds)
		reg.Help("whopay_broker_deposit_batch_flushes", "Deposit batch flushes performed.")
		q.flushes = reg.Counter("whopay_broker_deposit_batch_flushes", nil)
		reg.Help("whopay_broker_deposit_queue_depth", "Deposits waiting in the batch queue.")
		reg.GaugeFunc("whopay_broker_deposit_queue_depth", nil, func() float64 { return float64(len(q.jobs)) })
	}
	go q.run()
	return q
}

// serve queues one deposit and waits for its flush. During shutdown the
// request is served inline on the sequential path instead, so no accepted
// request is ever dropped.
func (q *depositBatcher) serve(m DepositRequest) (any, error) {
	job := depositJob{req: m, resp: make(chan depositResult, 1)}
	select {
	case q.jobs <- job:
	case <-q.quit:
		return q.b.handleDeposit(m)
	}
	select {
	case r := <-job.resp:
		return r.resp, r.err
	case <-q.done:
		// The worker exited. Either it flushed this job on its way out
		// (the buffered response is already waiting) or the job was
		// enqueued after the final drain and will never be read — in
		// which case serving inline is the request's only execution.
		select {
		case r := <-job.resp:
			return r.resp, r.err
		default:
		}
		return q.b.handleDeposit(m)
	}
}

// stopAndWait stops the worker and blocks until queued jobs are answered.
func (q *depositBatcher) stopAndWait() {
	close(q.quit)
	<-q.done
}

func (q *depositBatcher) run() {
	defer close(q.done)
	for {
		var first depositJob
		select {
		case first = <-q.jobs:
		case <-q.quit:
			q.drain()
			return
		}
		q.flush(q.fill(first))
	}
}

// fill grows a batch from what is already queued, up to MaxBatch. It
// never waits: an empty queue ends the batch.
func (q *depositBatcher) fill(first depositJob) []depositJob {
	batch := append(make([]depositJob, 0, q.cfg.MaxBatch), first)
	for len(batch) < q.cfg.MaxBatch {
		select {
		case job := <-q.jobs:
			batch = append(batch, job)
		default:
			return batch
		}
	}
	return batch
}

// drain answers whatever is still queued at shutdown, one flush each.
func (q *depositBatcher) drain() {
	for {
		select {
		case job := <-q.jobs:
			q.flush([]depositJob{job})
		default:
			return
		}
	}
}

func (q *depositBatcher) flush(batch []depositJob) {
	q.flushes.Inc()
	q.occupancy.Observe(time.Duration(len(batch)) * time.Second)
	reqs := make([]DepositRequest, len(batch))
	for i := range batch {
		reqs[i] = batch[i].req
	}
	results := q.b.flushDeposits(reqs)
	for i := range batch {
		batch[i].resp <- results[i]
	}
}

// pendingDeposit is a request that survived per-request validation and
// awaits the group verify + commit.
type pendingDeposit struct {
	c   *coin.Coin
	cur *coin.Binding
	msg []byte
}

// flushDeposits serves a group of deposits as one unit: per-request
// validation in arrival order, one signature-batch fan-out across the
// whole group, one atomic WAL record covering every commit, then
// per-request demux. Each deposit's outcome matches what sequential
// handleDeposit calls in the same order would have produced.
func (b *Broker) flushDeposits(reqs []DepositRequest) []depositResult {
	results := make([]depositResult, len(reqs))
	pending := make([]*pendingDeposit, len(reqs))
	claimed := make(map[coin.ID]bool, len(reqs))
	var deferred []int // within-batch duplicates, replayed sequentially
	var jobs []sig.VerifyJob
	var order []int // jobs[3k..3k+2] belong to reqs[order[k]]

	// Stage one: per-request validation, mirroring handleDeposit up to
	// (and including) the revoked-credential precheck of
	// verifyHolderAndGroup. A coin an earlier batch entry already claimed
	// is deferred to the sequential path after the commit, so its fraud
	// case and error come out exactly as sequential execution would have
	// produced them.
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
		if b.suite.Rec != nil {
			b.suite.Rec.RecordVerify()
			b.suite.Rec.RecordGroupVerify()
		}
		if b.gsv != nil && b.gsv.IsRevoked(m.GroupSig.Cred.Serial) {
			if err := b.suite.Scheme.Verify(cur.Holder, msg, m.HolderSig); err != nil {
				results[i] = depositResult{err: fmt.Errorf("%w: %v", ErrNotHolder, err)}
				continue
			}
			results[i] = depositResult{err: fmt.Errorf("%w: group signature: %v", ErrBadRequest,
				fmt.Errorf("%w: serial %d", groupsig.ErrCredentialRevoked, m.GroupSig.Cred.Serial))}
			continue
		}
		claimed[id] = true
		pending[i] = &pendingDeposit{c: c, cur: cur, msg: msg}
		jobs = append(jobs,
			sig.VerifyJob{Pub: cur.Holder, Msg: msg, Sig: m.HolderSig},
			sig.VerifyJob{Pub: b.cfg.GroupPub, Msg: groupsig.CredentialMessage(m.GroupSig.Cred.Serial, m.GroupSig.Cred.Pub), Sig: m.GroupSig.Cred.Cert},
			sig.VerifyJob{Pub: m.GroupSig.Cred.Pub, Msg: msg, Sig: m.GroupSig.Sig},
		)
		order = append(order, i)
	}

	// Stage two: one verify fan-out over the whole group, demultiplexed
	// to the exact error shapes of verifyHolderAndGroup.
	if len(jobs) > 0 {
		errs := sig.VerifyBatch(b.suite.Scheme, jobs)
		for k, i := range order {
			var err error
			switch {
			case errs[3*k] != nil:
				err = fmt.Errorf("%w: %v", ErrNotHolder, errs[3*k])
			case errs[3*k+1] != nil:
				err = fmt.Errorf("%w: group signature: %v", ErrBadRequest,
					fmt.Errorf("%w: %v", groupsig.ErrNotMember, errs[3*k+1]))
			case errs[3*k+2] != nil:
				err = fmt.Errorf("%w: group signature: %v", ErrBadRequest,
					fmt.Errorf("%w: %v", groupsig.ErrBadSignature, errs[3*k+2]))
			}
			if err != nil {
				results[i] = depositResult{err: err}
				pending[i] = nil
			}
		}
	}

	// Stage three: commit in arrival order. Inserts go to the embedded
	// store (bypassing per-operation journaling) and the journal records
	// accumulate into ONE atomic batch appended before any waiter wakes —
	// the same journal-before-response guarantee as the sequential path,
	// at one fsync for the whole group.
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
		b.evictServiceLock(id)
		b.ops.Inc(OpDeposit)
		results[i] = depositResult{resp: DepositResponse{Amount: p.c.Value}}
	}

	// Within-batch duplicates replay sequentially after the commit: the
	// first claim is now visible in the deposited store, so the replay
	// takes the same double-deposit (or clean) path sequential execution
	// would have.
	for _, i := range deferred {
		resp, err := b.handleDeposit(reqs[i])
		results[i] = depositResult{resp: resp, err: err}
	}
	return results
}

// handleBatchDeposit serves an explicit batch-deposit message: the whole
// group goes through one flush regardless of whether the async batching
// stage is enabled, and each deposit's outcome is reported individually.
func (b *Broker) handleBatchDeposit(m BatchDepositRequest) (any, error) {
	if len(m.Deposits) == 0 {
		return nil, fmt.Errorf("%w: empty deposit batch", ErrBadRequest)
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
