package load

import (
	"errors"
	"math/rand"

	"whopay/internal/core"
	"whopay/internal/payword"
)

// Micropayment-channel verbs: paywords stream between actor pairs off the
// broker's hot path, and only window settlements — one WhoPay purchase for
// a whole balance — touch the coin layer. Channels follow the coin
// checkout discipline: a verb takes a channel out of the pool, uses it
// exclusively, and returns it. Settlement value is counted into the minted
// ledger the audit checks from what the peer layer reports it settled —
// SettleChannel's and CloseChannel's amounts, ChannelPay's receipt — never
// from a balance the harness tracks on the side.

// loadChannelCapacity is the chain length load channels open with: small
// enough that a smoke run recycles whole windows (exhaustion settle +
// reopen), large enough that paywords dominate the traffic.
const loadChannelCapacity = 128

// loadChannel is one pooled payer→vendor channel.
type loadChannel struct {
	payer  *Actor
	vendor *Actor
	root   payword.Word
}

// openChannelBetween opens one channel and hands it to the caller checked
// out: the drain knows it (allChans), but no other verb can take it until
// the caller gives it to the pool.
func (w *World) openChannelBetween(payer, vendor *Actor, opts core.ChannelOptions) (*loadChannel, error) {
	root, err := payer.Peer.OpenChannel(vendor.Peer.Addr(), opts)
	if err != nil {
		return nil, err
	}
	w.channelsOpened.Add(1)
	ch := &loadChannel{payer: payer, vendor: vendor, root: root}
	w.chanMu.Lock()
	w.allChans = append(w.allChans, ch)
	w.chanMu.Unlock()
	return ch, nil
}

// takeChannel checks a random channel out of the pool for exclusive use.
func (w *World) takeChannel(rng *rand.Rand) (*loadChannel, bool) {
	w.chanMu.Lock()
	defer w.chanMu.Unlock()
	if len(w.chans) == 0 {
		return nil, false
	}
	i := rng.Intn(len(w.chans))
	ch := w.chans[i]
	w.chans[i] = w.chans[len(w.chans)-1]
	w.chans = w.chans[:len(w.chans)-1]
	return ch, true
}

// giveChannel returns a channel to the pool.
func (w *World) giveChannel(ch *loadChannel) {
	w.chanMu.Lock()
	w.chans = append(w.chans, ch)
	w.chanMu.Unlock()
}

// OpChannelPay streams one payword down a pooled channel, opening a fresh
// channel when the pool runs dry (every channel checked out, or recycled).
// Whatever the payment settled on its way — a threshold settle, or the
// closing settle of a window that ended underneath it — bought a WhoPay
// coin the broker minted, so the harness books the receipt's amount or the
// post-run conservation check would flag the vendor's deposit.
func (w *World) OpChannelPay(rng *rand.Rand) error {
	ch, ok := w.takeChannel(rng)
	if !ok {
		nc, err := w.openLoadChannel(rng)
		if err != nil {
			return err
		}
		ch = nc
	}
	rc, err := ch.payer.Peer.ChannelPay(ch.root)
	w.observeSettlement(rc.Settled)
	switch {
	case err == nil:
		w.channelPays.Add(1)
		w.giveChannel(ch)
		return nil
	case errors.Is(err, core.ErrChannelClosed):
		// The window is gone; the next dry intent opens a replacement.
		w.channelRecycled.Add(1)
		return nil // window recycling is the scenario working as designed
	case errors.Is(err, core.ErrNoChannel):
		return ErrSkip // raced a close; a replacement opens on the next dry intent
	default:
		// A payword burned on a failed call self-heals on the next
		// release (the vendor credits skipped indices), so the channel
		// stays in rotation.
		w.giveChannel(ch)
		return err
	}
}

// OpChannelSettle settles a pooled channel's balance now — the explicit
// end-of-window payment, one WhoPay purchase covering every payword since
// the last settlement — and keeps the window open.
func (w *World) OpChannelSettle(rng *rand.Rand) error {
	ch, ok := w.takeChannel(rng)
	if !ok {
		return ErrSkip
	}
	n, err := ch.payer.Peer.SettleChannel(ch.root)
	if errors.Is(err, core.ErrNoChannel) || errors.Is(err, core.ErrChannelClosed) {
		return ErrSkip // raced a close; not returned to the pool
	}
	w.observeSettlement(n)
	w.giveChannel(ch)
	return err
}

// openLoadChannel opens a channel between two random online actors.
func (w *World) openLoadChannel(rng *rand.Rand) (*loadChannel, error) {
	payer := w.pickOnline(rng, -1)
	if payer == nil {
		return nil, ErrSkip
	}
	vendor := w.pickOnline(rng, payer.Idx)
	if vendor == nil {
		return nil, ErrSkip
	}
	return w.openChannelBetween(payer, vendor, core.ChannelOptions{Capacity: loadChannelCapacity})
}

// observeSettlement books one settlement's value as minted: the purchase
// happened inside the peer's channel layer, invisible to the verbs that
// normally count minted value at Purchase call sites.
func (w *World) observeSettlement(n int64) {
	if n <= 0 {
		return
	}
	w.minted.Add(n)
	w.channelSettles.Add(1)
	w.channelSettled.Add(n)
}

// settleChannels closes every channel the run opened, converting any
// unsettled window balance into WhoPay coins before the ledger drain
// deposits the vendors' wallets. A channel that already recycled answers
// ErrNoChannel and is skipped; transient failures get retried.
func (w *World) settleChannels() {
	w.chanMu.Lock()
	chans := append([]*loadChannel(nil), w.allChans...)
	w.chans = nil
	w.chanMu.Unlock()
	for _, ch := range chans {
		for attempt := 0; attempt < 3; attempt++ {
			n, err := ch.payer.Peer.CloseChannel(ch.root)
			if err == nil {
				w.observeSettlement(n)
				break
			}
			if errors.Is(err, core.ErrNoChannel) || errors.Is(err, core.ErrChannelClosed) {
				break
			}
		}
	}
}
