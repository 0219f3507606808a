package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"whopay/internal/bus"
	"whopay/internal/coin"
	"whopay/internal/payword"
	"whopay/internal/sig"
)

// Micropayment channels (DESIGN.md §12): a payer opens a PayWord chain
// against a vendor and streams per-unit paywords — hash checks only, no
// signatures, no broker — then settles the accumulated balance with a
// single WhoPay purchase+issue when the credit window closes. This is the
// aggregation the paper's Section 7 sketches: "each pair of users maintains
// a soft credit window between themselves and only makes payments when this
// window reaches a threshold value."
//
// Channel state is in-memory on both ends: a crash loses only the unsettled
// tail of a window (bounded by the settle threshold / chain capacity),
// never settled WhoPay value. The payword stream is the ordering backbone —
// a dropped payment self-heals because the next payword pays for every
// skipped index (payword.Vendor.Receive), and an exact replay of the last
// payment is answered idempotently from the vendor's cached response.

// DefaultChannelCapacity is the chain length used when ChannelOptions.
// Capacity is zero: the maximum units a window can carry before it must
// close and settle.
const DefaultChannelCapacity = 1024

// ChannelOptions configures a payer-side micropayment channel.
type ChannelOptions struct {
	// Capacity is the PayWord chain length — the credit ceiling of the
	// window. Defaults to DefaultChannelCapacity.
	Capacity int
	// SettleThreshold auto-settles the channel (one WhoPay payment for
	// the whole balance) whenever the vendor-reported balance reaches it.
	// Zero means settlement only happens explicitly (SettleChannel /
	// CloseChannel) or when the window closes (capacity, TTL).
	SettleThreshold int64
	// TTL bounds the credit window in time: the first payment attempted
	// after expiry settles the balance, closes the channel, and returns
	// ErrChannelClosed. Zero disables expiry.
	TTL time.Duration
	// Lottery switches the channel to Rivest-style probabilistic
	// settlement: every payment carries a lottery ticket worth Prize
	// units with probability 1/WinDivisor, and only winning tickets
	// accrue balance. The payword stream still flows underneath as the
	// ordering and replay backbone. Expected cost per payment is
	// Prize/WinDivisor units.
	Lottery    bool
	WinDivisor uint32
	Prize      uint32
}

// ChannelReceipt is the payer-visible outcome of one channel payment.
type ChannelReceipt struct {
	// Owed is the vendor-reported unsettled balance after this payment.
	Owed int64
	// Won reports whether this payment's lottery ticket won (always
	// false on plain payword channels).
	Won bool
	// Settled is the value this call converted into a WhoPay payment on
	// its way: the threshold settle after the payment landed, or the
	// closing settle of a window that ended underneath it — in which case
	// it is reported alongside ErrChannelClosed. Zero when the call
	// settled nothing.
	Settled int64
}

// payerChannel is the payer-side state of one channel. All operations on a
// channel serialize under mu — a PayWord chain is a single payer-vendor
// session and its cursor must not interleave.
type payerChannel struct {
	mu     sync.Mutex
	root   payword.Word
	vendor bus.Address
	chain  *payword.Chain
	keys   sig.KeyPair // chain identity: signs the commitment and tickets
	opts   ChannelOptions
	opened time.Time

	nonce       [32]byte // current vendor nonce (lottery ticket freshness)
	outstanding int64    // vendor-reported unsettled balance
	pending     coin.ID  // settlement coin issued but not yet acknowledged
	closed      bool
}

// vendorChannel is the vendor-side state of one channel.
type vendorChannel struct {
	mu    sync.Mutex
	vend  *payword.Vendor
	payer sig.PublicKey // commitment payer: pins ticket signers

	lottery    bool
	winDivisor uint32
	prize      uint32
	nonce      [32]byte

	accrued int64 // total value received (units, or won prizes)
	settled int64 // value already settled with WhoPay coins

	lastSet  bool // replay idempotence: cache of the last accepted payment
	lastPay  payword.Payment
	lastResp ChannelPayResponse

	closed bool
}

// settleRecord pins a settlement coin to the channel it credited, so a
// replayed close is idempotent and a coin can never credit two channels.
type settleRecord struct {
	root   payword.Word
	amount int64
}

func channelKey(root payword.Word) string { return string(root[:]) }

// OpenChannel opens a micropayment channel to the vendor peer at the given
// address: it builds a fresh PayWord chain dedicated to that vendor, sends
// the signed commitment, and returns the chain root — the channel handle
// every later call takes.
func (p *Peer) OpenChannel(vendor bus.Address, opts ChannelOptions) (payword.Word, error) {
	sp := p.instr.Begin("channel-open")
	root, err := p.openChannel(vendor, opts)
	p.instr.End(sp, err)
	return root, err
}

func (p *Peer) openChannel(vendor bus.Address, opts ChannelOptions) (payword.Word, error) {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultChannelCapacity
	}
	if opts.Lottery && (opts.WinDivisor == 0 || opts.Prize == 0) {
		return payword.Word{}, fmt.Errorf("%w: lottery channel needs WinDivisor and Prize", ErrBadRequest)
	}
	// The chain gets its own keypair: the commitment carries the public
	// key, so the vendor never learns the payer's WhoPay identity — the
	// channel inherits the coin layer's payer anonymity.
	keys, err := p.suite.GenerateKey()
	if err != nil {
		return payword.Word{}, fmt.Errorf("core: channel keygen: %w", err)
	}
	chain, err := payword.NewChain(p.suite, keys, string(vendor), opts.Capacity)
	if err != nil {
		return payword.Word{}, fmt.Errorf("core: building channel chain: %w", err)
	}
	c := chain.Commitment()
	raw, err := p.call(vendor, ChannelOpenRequest{
		Commitment: c,
		Lottery:    opts.Lottery,
		WinDivisor: opts.WinDivisor,
		Prize:      opts.Prize,
	})
	if err != nil {
		return payword.Word{}, fmt.Errorf("core: opening channel: %w", err)
	}
	or, ok := raw.(ChannelOpenResponse)
	if !ok {
		return payword.Word{}, fmt.Errorf("%w: unexpected channel-open response %T", ErrBadRequest, raw)
	}
	pc := &payerChannel{
		root:   c.Root,
		vendor: vendor,
		chain:  chain,
		keys:   keys,
		opts:   opts,
		opened: p.cfg.Clock(),
	}
	if len(or.Nonce) != len(pc.nonce) {
		return payword.Word{}, fmt.Errorf("%w: channel-open nonce is %d bytes", ErrBadRequest, len(or.Nonce))
	}
	copy(pc.nonce[:], or.Nonce)
	p.channels.Set(channelKey(c.Root), pc)
	return c.Root, nil
}

// ChannelPay streams one unit payment down the channel: a payword release
// and a hash check at the vendor — no signatures on the hot path. When the
// window closes underneath the payment (chain exhausted or TTL expired) the
// balance is settled, the channel is closed, and ErrChannelClosed is
// returned with a receipt naming the amount that closing settle paid; the
// caller opens a fresh channel to continue.
func (p *Peer) ChannelPay(root payword.Word) (ChannelReceipt, error) {
	sp := p.instr.Begin("channel-pay")
	rc, err := p.channelPay(root)
	p.instr.End(sp, err)
	return rc, err
}

func (p *Peer) channelPay(root payword.Word) (ChannelReceipt, error) {
	pc, ok := p.channels.Get(channelKey(root))
	if !ok {
		return ChannelReceipt{}, ErrNoChannel
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return ChannelReceipt{}, ErrChannelClosed
	}
	if pc.opts.TTL > 0 && p.cfg.Clock().Sub(pc.opened) >= pc.opts.TTL {
		n, err := p.settleChannelLocked(pc, true)
		if err != nil {
			return ChannelReceipt{}, fmt.Errorf("core: settling expired channel: %w", err)
		}
		p.channels.Delete(channelKey(root))
		return ChannelReceipt{Settled: n}, fmt.Errorf("%w: credit window expired", ErrChannelClosed)
	}

	pay, err := pc.chain.Pay()
	if errors.Is(err, payword.ErrChainExhausted) {
		n, serr := p.settleChannelLocked(pc, true)
		if serr != nil {
			return ChannelReceipt{}, fmt.Errorf("core: settling exhausted channel: %w", serr)
		}
		p.channels.Delete(channelKey(root))
		return ChannelReceipt{Settled: n}, fmt.Errorf("%w: chain exhausted", ErrChannelClosed)
	}
	if err != nil {
		return ChannelReceipt{}, fmt.Errorf("core: channel pay: %w", err)
	}

	req := ChannelPayRequest{Payment: pay}
	if pc.opts.Lottery {
		tk, err := payword.IssueTicket(p.suite, pc.keys, string(pc.vendor),
			uint64(pay.Index), pc.opts.WinDivisor, pc.opts.Prize, pc.nonce)
		if err != nil {
			return ChannelReceipt{}, fmt.Errorf("core: issuing lottery ticket: %w", err)
		}
		req.Ticket = tk
	}
	raw, err := p.call(pc.vendor, req)
	if err != nil {
		// The payword is burned but not lost: the next release pays for
		// every skipped index (Vendor.Receive's delta), so a dropped
		// payment self-heals.
		return ChannelReceipt{}, fmt.Errorf("core: channel pay: %w", err)
	}
	pr, ok := raw.(ChannelPayResponse)
	if !ok {
		return ChannelReceipt{}, fmt.Errorf("%w: unexpected channel-pay response %T", ErrBadRequest, raw)
	}
	pc.outstanding = pr.Owed
	if pc.opts.Lottery && len(pr.Nonce) == len(pc.nonce) {
		copy(pc.nonce[:], pr.Nonce)
	}
	rc := ChannelReceipt{Owed: pr.Owed, Won: pr.Won}
	if pc.opts.SettleThreshold > 0 && pc.outstanding >= pc.opts.SettleThreshold {
		n, err := p.settleChannelLocked(pc, false)
		if err != nil {
			// The payment itself landed; the balance simply stays open
			// for the next settle attempt.
			return rc, fmt.Errorf("core: threshold settle: %w", err)
		}
		rc.Owed, rc.Settled = pc.outstanding, n
	}
	return rc, nil
}

// SettleChannel settles the channel's outstanding balance now — one WhoPay
// purchase issued to the vendor — and keeps the window open. Returns the
// amount settled (zero when the balance was already clean).
func (p *Peer) SettleChannel(root payword.Word) (int64, error) {
	sp := p.instr.Begin("channel-settle")
	n, err := p.settleChannel(root)
	p.instr.End(sp, err)
	return n, err
}

func (p *Peer) settleChannel(root payword.Word) (int64, error) {
	pc, ok := p.channels.Get(channelKey(root))
	if !ok {
		return 0, ErrNoChannel
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return 0, ErrChannelClosed
	}
	return p.settleChannelLocked(pc, false)
}

// CloseChannel settles any outstanding balance and closes the window on
// both ends. Returns the amount settled by the close.
func (p *Peer) CloseChannel(root payword.Word) (int64, error) {
	sp := p.instr.Begin("channel-close")
	n, err := p.closeChannel(root)
	p.instr.End(sp, err)
	return n, err
}

func (p *Peer) closeChannel(root payword.Word) (int64, error) {
	pc, ok := p.channels.Get(channelKey(root))
	if !ok {
		return 0, ErrNoChannel
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return 0, nil
	}
	n, err := p.settleChannelLocked(pc, true)
	if err != nil {
		return 0, err
	}
	p.channels.Delete(channelKey(root))
	return n, nil
}

// settleChannelLocked converts the outstanding balance into one WhoPay
// payment: purchase a coin of exactly that value, issue it to the vendor,
// then present the coin ID in a close message so the vendor credits the
// channel. Caller holds pc.mu.
//
// Crash safety: the settlement coin is remembered in pc.pending from the
// moment it is issued until the vendor acknowledges the close, so a dropped
// close reply is retried with the same coin instead of buying a second one;
// the vendor's settleRecord map makes the replay idempotent.
func (p *Peer) settleChannelLocked(pc *payerChannel, final bool) (int64, error) {
	if pc.pending == "" {
		if pc.outstanding <= 0 && !final {
			return 0, nil
		}
		if pc.outstanding > 0 {
			id, err := p.Purchase(pc.outstanding, false)
			if err != nil {
				return 0, fmt.Errorf("core: buying settlement coin: %w", err)
			}
			if err := p.IssueTo(pc.vendor, id); err != nil {
				// The coin stays self-held and spendable; no value lost.
				return 0, fmt.Errorf("core: issuing settlement coin: %w", err)
			}
			pc.pending = id
		}
	}
	raw, err := p.call(pc.vendor, ChannelCloseRequest{Root: pc.root, CoinID: pc.pending, Final: final})
	if err != nil {
		return 0, fmt.Errorf("core: channel close: %w", err)
	}
	cr, ok := raw.(ChannelCloseResponse)
	if !ok {
		return 0, fmt.Errorf("%w: unexpected channel-close response %T", ErrBadRequest, raw)
	}
	pc.pending = ""
	pc.outstanding -= cr.Settled
	if pc.outstanding < 0 {
		pc.outstanding = 0
	}
	if final {
		pc.closed = true
	}
	return cr.Settled, nil
}

// ChannelBalance reports the payer's view of a channel: the vendor-reported
// unsettled balance and how many unit payments remain on the chain.
func (p *Peer) ChannelBalance(root payword.Word) (owed int64, remaining int, ok bool) {
	pc, found := p.channels.Get(channelKey(root))
	if !found {
		return 0, 0, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.outstanding, pc.chain.Remaining(), true
}

// VendorChannelOutstanding reports the vendor's view of a channel's
// unsettled balance (accrued minus settled).
func (p *Peer) VendorChannelOutstanding(root payword.Word) (int64, bool) {
	vc, found := p.vchannels.Get(channelKey(root))
	if !found {
		return 0, false
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.accrued - vc.settled, true
}

// openChannelCount reports how many channels are open on each side — the
// feed for the whopay_channels_open gauges.
func (p *Peer) openChannelCount(vendorSide bool) (n int) {
	if vendorSide {
		p.vchannels.Range(func(_ string, vc *vendorChannel) bool {
			vc.mu.Lock()
			if !vc.closed {
				n++
			}
			vc.mu.Unlock()
			return true
		})
		return n
	}
	p.channels.Range(func(_ string, pc *payerChannel) bool {
		pc.mu.Lock()
		if !pc.closed {
			n++
		}
		pc.mu.Unlock()
		return true
	})
	return n
}

// handleChannelOpen is the vendor side of OpenChannel: verify the
// commitment signature, pin the lottery terms, mint the first ticket nonce.
func (p *Peer) handleChannelOpen(m ChannelOpenRequest) (any, error) {
	if m.Lottery && (m.WinDivisor == 0 || m.Prize == 0) {
		return nil, fmt.Errorf("%w: lottery channel needs WinDivisor and Prize", ErrBadRequest)
	}
	vend, err := payword.NewVendor(p.suite, string(p.cfg.Addr), m.Commitment)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	vc := &vendorChannel{
		vend:       vend,
		payer:      m.Commitment.Payer.Clone(),
		lottery:    m.Lottery,
		winDivisor: m.WinDivisor,
		prize:      m.Prize,
	}
	copy(vc.nonce[:], p.randBytes(len(vc.nonce)))
	if !p.vchannels.Insert(channelKey(m.Commitment.Root), vc) {
		return nil, fmt.Errorf("%w: channel already open for this chain", ErrBadRequest)
	}
	return ChannelOpenResponse{Nonce: vc.nonce[:]}, nil
}

// handleChannelPay is the vendor side of ChannelPay: a hash-walk check via
// payword.Vendor.Receive, plus ticket validation on lottery channels. An
// exact replay of the last accepted payment returns the cached response —
// retries after a dropped reply must not double-accrue.
func (p *Peer) handleChannelPay(m ChannelPayRequest) (any, error) {
	vc, ok := p.vchannels.Get(channelKey(m.Payment.Root))
	if !ok {
		return nil, ErrNoChannel
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.closed {
		return nil, ErrChannelClosed
	}
	if vc.lastSet && m.Payment == vc.lastPay {
		return vc.lastResp, nil
	}

	var won bool
	var payout int
	if vc.lottery {
		if m.Ticket == nil {
			return nil, fmt.Errorf("%w: lottery channel payment missing ticket", ErrBadRequest)
		}
		tk := m.Ticket
		switch {
		case tk.Serial != uint64(m.Payment.Index):
			return nil, fmt.Errorf("%w: ticket serial %d for payment %d", ErrBadRequest, tk.Serial, m.Payment.Index)
		case tk.VendorNonce != vc.nonce:
			return nil, fmt.Errorf("%w: stale ticket nonce", ErrBadRequest)
		case !tk.Payer.Equal(vc.payer):
			return nil, fmt.Errorf("%w: ticket signer is not the channel payer", ErrBadRequest)
		case tk.WinDivisor != vc.winDivisor || tk.Prize != vc.prize:
			return nil, fmt.Errorf("%w: ticket terms diverge from the channel's", ErrBadRequest)
		}
		var err error
		won, payout, err = payword.CheckTicket(p.suite, tk)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	} else if m.Ticket != nil {
		return nil, fmt.Errorf("%w: unexpected lottery ticket on a payword channel", ErrBadRequest)
	}

	if _, err := vc.vend.Receive(m.Payment); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if vc.lottery {
		if won {
			vc.accrued += int64(payout)
		}
		// Fresh nonce per accepted payment: a ticket can never be
		// re-drawn hoping for a better outcome.
		copy(vc.nonce[:], p.randBytes(len(vc.nonce)))
	} else {
		// Owed is cumulative: delta-crediting would diverge from the
		// chain cursor after a self-healed skip.
		vc.accrued = int64(vc.vend.Owed())
	}
	resp := ChannelPayResponse{Owed: vc.accrued - vc.settled, Won: won, Nonce: vc.nonce[:]}
	vc.lastSet, vc.lastPay, vc.lastResp = true, m.Payment, resp
	return resp, nil
}

// handleChannelClose is the vendor side of settlement: the payer has just
// issued a WhoPay coin to this peer (it already sits in the held wallet)
// and names it here; the vendor credits the channel with the coin's face
// value. The settleRecord map pins each coin to one channel — a replayed
// close is answered idempotently and a coin can never credit two channels.
func (p *Peer) handleChannelClose(m ChannelCloseRequest) (any, error) {
	vc, ok := p.vchannels.Get(channelKey(m.Root))
	if !ok {
		return nil, ErrNoChannel
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()

	var settled int64
	if m.CoinID != "" {
		if rec, seen := p.settleCredits.Get(m.CoinID); seen {
			if rec.root != m.Root {
				return nil, fmt.Errorf("%w: settlement coin already credited another channel", ErrBadRequest)
			}
			settled = rec.amount
		} else {
			hc, held := p.held.Get(m.CoinID)
			if !held {
				return nil, fmt.Errorf("%w: settlement coin not delivered", ErrBadRequest)
			}
			settled = hc.c.Value
			vc.settled += settled
			p.settleCredits.Set(m.CoinID, &settleRecord{root: m.Root, amount: settled})
		}
	}
	if m.Final {
		vc.closed = true
	}
	return ChannelCloseResponse{Settled: settled}, nil
}
