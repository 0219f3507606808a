package load

import (
	"math/rand"
	"testing"

	"whopay/internal/bus"
	"whopay/internal/core"
)

// TestChannelSettlementBooking drives every way a channel settles — the
// threshold settle inside a payment, an explicit settle, the closing settle
// of an exhausted window, and the drain's close of a still-open one — and
// requires the harness's minted ledger to match the broker's exactly. The
// harness books what the peer layer reports it settled; a side copy of the
// balance is what used to drift (Ghost < 0) once two verbs shared a channel.
func TestChannelSettlementBooking(t *testing.T) {
	w, err := NewWorld(WorldConfig{Actors: 4, Seed: 7, Network: bus.NewMemory()})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	t.Cleanup(w.Close)
	rng := rand.New(rand.NewSource(7))

	ch, err := w.openChannelBetween(w.Actors[0], w.Actors[1], core.ChannelOptions{Capacity: 8, SettleThreshold: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w.giveChannel(ch)
	step := func(what string, op func(*rand.Rand) error, wantSettles, wantSettled int64) {
		t.Helper()
		if err := op(rng); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s, v := w.channelSettles.Load(), w.channelSettled.Load(); s != wantSettles || v != wantSettled {
			t.Fatalf("after %s: %d settlements worth %d booked, want %d worth %d", what, s, v, wantSettles, wantSettled)
		}
	}
	// Payments 1–7: the threshold settles 3 units at the third and sixth.
	for _, want := range []int64{0, 0, 1, 1, 1, 2, 2} {
		step("threshold pay", w.OpChannelPay, want, 3*want)
	}
	step("explicit settle", w.OpChannelSettle, 3, 7) // the seventh unit
	step("last pay", w.OpChannelPay, 3, 7)           // payword 8 of 8
	step("exhausted pay", w.OpChannelPay, 4, 8)      // closing settle of the eighth unit
	if got := w.channelRecycled.Load(); got != 1 {
		t.Fatalf("recycled windows = %d, want 1", got)
	}
	// The pool is dry: this intent opens a replacement, pays on it, and
	// returns it to the pool exactly once — its unit is left for the drain.
	step("dry-pool pay", w.OpChannelPay, 4, 8)
	if got := len(w.chans); got != 1 {
		t.Fatalf("pool holds %d entries for one open channel", got)
	}

	audit := w.DrainAndAudit()
	if len(audit.Violations) > 0 {
		t.Fatalf("ledger audit violations: %v\naudit: %+v", audit.Violations, audit)
	}
	if audit.Ghost != 0 {
		t.Fatalf("ghost = %d (broker issued %d, harness booked %d), want 0", audit.Ghost, audit.Issued, audit.Minted)
	}
	if s, v := w.channelSettles.Load(), w.channelSettled.Load(); s != 5 || v != 9 {
		t.Fatalf("after the drain: %d settlements worth %d booked, want 5 worth 9", s, v)
	}
}
