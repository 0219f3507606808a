package load

import (
	"errors"
	"fmt"
	"time"

	"whopay/internal/coin"
	"whopay/internal/core"
)

// Audit is the post-run ledger verdict: the world healed and drained back
// to the broker, then conservation and no-double-spend checked exactly —
// the same arbiter the chaos suite uses. Violations is empty on a clean
// run.
type Audit struct {
	Skipped bool `json:"skipped,omitempty"` // run aborted; no drain ran

	Issued    int64 `json:"issued"`    // value the broker minted
	Minted    int64 `json:"minted"`    // value actors observed arriving
	Ghost     int64 `json:"ghost"`     // purchases whose response was lost
	Deposited int64 `json:"deposited"` // value redeemed after the drain
	Balances  int64 `json:"balances"`  // sum of actor ledger balances

	Parked             int64 `json:"parked_coins"`
	DoubleDepositCases int64 `json:"double_deposit_cases"`
	DSRejected         int64 `json:"replays_rejected"`
	DSAccepted         int64 `json:"replays_accepted"`

	// SettlementsPending is the cross-shard settlements still unacked when
	// the audit ran — non-zero only if the post-drain wait timed out.
	SettlementsPending int `json:"settlements_pending,omitempty"`

	// DHT replication verdicts (DESIGN.md §14); meaningful only when the
	// run replicated the binding list. DHTStaleReads counts
	// backwards-in-time reads the lease watermark observed — a non-zero
	// value means a quorum read returned older state than one before it.
	// DHTDivergence is the replica-set digest disagreement remaining after
	// the drain's convergence wait (anti-entropy parity gate).
	DHTStaleReads uint64 `json:"dht_stale_reads,omitempty"`
	DHTRepaired   uint64 `json:"dht_reads_repaired,omitempty"`
	DHTDivergence int    `json:"dht_divergence,omitempty"`
	DHTConverged  bool   `json:"dht_converged,omitempty"`
	DHTReplicated bool   `json:"dht_replicated,omitempty"`

	Conserved     bool     `json:"conserved"`
	NoDoubleSpend bool     `json:"no_double_spend"`
	Violations    []string `json:"violations,omitempty"`
}

// DrainAndAudit heals the network, brings every actor back online, drains
// every recoverable coin to the broker, and audits the ledger.
//
// The drain follows the chaos suite's quarantine discipline: snapshot who
// holds what before depositing anything, so a self-held coin some peer
// also holds (a ghost delivery — the owner's confirmation was lost) is
// redeemed from the holder's copy and never re-issued, which would sign a
// second binding and frame the owner.
func (w *World) DrainAndAudit() Audit {
	w.HealNetwork()
	w.RestartDownDHTNodes() // digest parity needs the full replica set live
	for _, a := range w.Actors {
		if a.isOffline() {
			a.setOffline(false)
			_ = a.Peer.GoOnline() // the healed network makes sync best-effort safe
		}
	}

	// Channels close first: final settlements issue their coins into
	// vendor wallets, and the held-coin snapshot below must see them.
	w.settleChannels()

	heldByAnyone := make(map[coin.ID]bool)
	for _, a := range w.Actors {
		for _, id := range a.Peer.HeldCoins() {
			heldByAnyone[id] = true
		}
	}

	_ = eachIndex(len(w.Actors), func(i int) error {
		p := w.Actors[i].Peer
		for _, id := range p.HeldCoins() {
			sweepDeposit(p, id)
		}
		return nil
	})
	_ = eachIndex(len(w.Actors), func(i int) error {
		p := w.Actors[i].Peer
		for _, id := range p.SelfHeldCoins() {
			if heldByAnyone[id] {
				continue
			}
			if err := p.IssueTo(p.Addr(), id); err != nil {
				continue
			}
			sweepDeposit(p, id)
		}
		return nil
	})

	// Under federation, a foreign-shard deposit is committed before its
	// settlement lands on the payout's home shard; conservation compares
	// per-shard ledgers, so every settlement must be acked first.
	w.drainSettlements(30 * time.Second)

	return w.audit(false)
}

// drainSettlements waits until no live leader has unacked cross-shard
// settlements. A timeout is not fatal here — the audit reports the residue
// and the conservation check surfaces what it cost.
func (w *World) drainSettlements(timeout time.Duration) {
	if w.Fed == nil {
		return
	}
	deadline := time.Now().Add(timeout)
	for w.Fed.PendingSettlements() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// AuditOnly computes the ledger verdict without draining — for aborted
// runs, where partial numbers beat none but conservation cannot be
// asserted (outstanding coins are not a violation, so only hard evidence
// of double spending counts).
func (w *World) AuditOnly() Audit {
	a := w.audit(true)
	return a
}

// audit gathers the numbers and applies the invariants. Under federation
// the ledger is the sum over shard leaders: issuance and redemption happen
// on a coin's home shard, payout credit on the reference's home shard, so
// per-shard sums compose into the same global invariants.
func (w *World) audit(skipped bool) Audit {
	brokers := w.brokers()
	a := Audit{
		Skipped:    skipped,
		Minted:     w.minted.Load(),
		Parked:     w.parked.Load(),
		DSRejected: w.dsRejected.Load(),
		DSAccepted: w.dsAccepted.Load(),
	}
	if w.Fed != nil {
		a.SettlementsPending = w.Fed.PendingSettlements()
	}
	if w.Cluster != nil {
		a.DHTReplicated = true
		_, _, a.DHTStaleReads, a.DHTRepaired = w.DHTLeaseStats()
		if !skipped {
			a.DHTConverged = w.Cluster.WaitConverged(10 * time.Second)
			a.DHTDivergence = w.Cluster.Divergence()
		}
	}
	for _, b := range brokers {
		a.Issued += b.IssuedValue()
		a.Deposited += b.DepositedValue()
	}
	a.Ghost = a.Issued - a.Minted
	for _, actor := range w.Actors {
		for _, b := range brokers {
			a.Balances += b.Balance(actor.Peer.ID())
		}
	}
	for _, b := range brokers {
		for _, fc := range b.FraudCases() {
			if fc.Kind == "double-deposit" {
				a.DoubleDepositCases++
			}
		}
	}

	violate := func(format string, args ...any) {
		a.Violations = append(a.Violations, fmt.Sprintf(format, args...))
	}
	if a.Ghost < 0 {
		violate("ghost accounting negative: broker issued %d, actors observed %d", a.Issued, a.Minted)
	}
	a.Conserved = true
	if !skipped {
		if a.SettlementsPending > 0 {
			a.Conserved = false
			violate("%d cross-shard settlements never acked", a.SettlementsPending)
		}
		if a.Deposited != a.Issued-a.Ghost {
			a.Conserved = false
			violate("value not conserved: issued %d, ghost %d, redeemed %d", a.Issued, a.Ghost, a.Deposited)
		}
		if a.Balances != a.Deposited {
			a.Conserved = false
			violate("credited balances %d != redeemed value %d", a.Balances, a.Deposited)
		}
		if a.DHTReplicated && !a.DHTConverged {
			violate("dht replicas diverged after drain: %d replica slots behind", a.DHTDivergence)
		}
	}
	a.NoDoubleSpend = true
	if a.Deposited > a.Issued {
		a.NoDoubleSpend = false
		violate("double spend accepted: redeemed %d of %d issued", a.Deposited, a.Issued)
	}
	if a.DSAccepted > 0 {
		a.NoDoubleSpend = false
		violate("broker accepted %d deposit replays", a.DSAccepted)
	}
	if a.DHTStaleReads > 0 {
		a.NoDoubleSpend = false
		violate("dht: %d stale quorum reads observed (lease watermark went backwards)", a.DHTStaleReads)
	}
	for _, b := range brokers {
		for _, fc := range b.FraudCases() {
			if fc.Kind == "owner-fraud" || fc.Punished != "" {
				a.NoDoubleSpend = false
				violate("honest party punished: kind=%s punished=%q coin=%s", fc.Kind, fc.Punished, fc.CoinID)
			}
		}
	}
	for _, actor := range w.Actors {
		for _, b := range brokers {
			if b.Frozen(actor.Peer.ID()) {
				a.NoDoubleSpend = false
				violate("honest actor %s frozen", actor.Peer.ID())
			}
		}
	}
	return a
}

// sweepDeposit redeems one held coin after healing, pulling a missed
// binding from the public list when the broker reports ours stale (a
// downtime renewal whose confirmation and notification were both lost).
// Remaining failures mean another party holds the authoritative binding;
// their deposit settles the coin, and conservation is the arbiter.
func sweepDeposit(p *core.Peer, id coin.ID) {
	err := p.Deposit(id, p.ID())
	if err == nil || errors.Is(err, core.ErrAlreadyDeposited) {
		return
	}
	if errors.Is(err, core.ErrStaleBinding) {
		_ = p.RecoverHeldBinding(id)
		_ = p.Deposit(id, p.ID())
	}
}
