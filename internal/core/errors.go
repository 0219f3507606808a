package core

import (
	"errors"

	"whopay/internal/bus"
	"whopay/internal/groupsig"
)

// Sentinel errors for protocol rejections. Handlers return these; across
// the bus they surface as *bus.RemoteError with the message preserved.
var (
	// ErrUnknownCoin rejects operations on coins the entity never saw.
	ErrUnknownCoin = errors.New("core: unknown coin")
	// ErrUnknownIdentity rejects requests naming an unregistered user.
	ErrUnknownIdentity = errors.New("core: unknown identity")
	// ErrNotOwner rejects owner-only operations from non-owners.
	ErrNotOwner = errors.New("core: not the coin owner")
	// ErrNotHolder rejects holder-only operations when the requester
	// cannot prove current holdership — the double-spend front line.
	ErrNotHolder = errors.New("core: requester does not hold the coin")
	// ErrStaleBinding rejects operations citing an out-of-date binding.
	ErrStaleBinding = errors.New("core: stale binding")
	// ErrAlreadyDeposited rejects re-deposit of a spent coin.
	ErrAlreadyDeposited = errors.New("core: coin already deposited")
	// ErrFrozen rejects operations by punished identities.
	ErrFrozen = errors.New("core: identity frozen for fraud")
	// ErrBadRequest rejects malformed or unverifiable requests.
	ErrBadRequest = errors.New("core: bad request")
	// ErrInsufficientFunds rejects purchases beyond the buyer's account
	// balance (when the broker enforces budgets).
	ErrInsufficientFunds = errors.New("core: insufficient funds")
	// ErrNoOffer rejects deliveries that match no outstanding offer.
	ErrNoOffer = errors.New("core: no matching payment offer")
	// ErrCoinBusy rejects a request for a coin that is mid-service
	// (another transfer or renewal is in flight); retry.
	ErrCoinBusy = errors.New("core: coin busy, retry")
	// ErrNoCoinAvailable reports that a payment policy found no coin for
	// the chosen method.
	ErrNoCoinAvailable = errors.New("core: no coin available for payment method")
	// ErrPaymentFailed reports that every method in the policy failed.
	ErrPaymentFailed = errors.New("core: all payment methods failed")
	// ErrDetectionOff reports a detection API used without a DHT.
	ErrDetectionOff = errors.New("core: double-spending detection not configured")
	// ErrNoChannel rejects channel operations naming an unknown channel
	// root.
	ErrNoChannel = errors.New("core: no such channel")
	// ErrChannelClosed rejects payments on a channel already settled and
	// torn down.
	ErrChannelClosed = errors.New("core: channel closed")
	// ErrWrongShard rejects requests whose routing key homes on another
	// federation shard; the rejection carries a redirect hint to the
	// owning shard's leader when known.
	ErrWrongShard = errors.New("core: key belongs to another shard")
	// ErrNotLeader rejects requests served to a replica that is not its
	// shard's current leader; the rejection carries a redirect hint to
	// the leader when known.
	ErrNotLeader = errors.New("core: not the shard leader")
)

// init registers wire codes for every protocol sentinel and for the judge's
// groupsig rejections, so errors.Is keeps working after a hop through tcpbus
// (which can only carry strings) and the retry layer can tell protocol
// rejections from transport failures. Codes are stable wire contract; never
// renumber.
func init() {
	for _, e := range []struct {
		code     string
		sentinel error
	}{
		{"core.unknown_coin", ErrUnknownCoin},
		{"core.unknown_identity", ErrUnknownIdentity},
		{"core.not_owner", ErrNotOwner},
		{"core.not_holder", ErrNotHolder},
		{"core.stale_binding", ErrStaleBinding},
		{"core.already_deposited", ErrAlreadyDeposited},
		{"core.frozen", ErrFrozen},
		{"core.bad_request", ErrBadRequest},
		{"core.insufficient_funds", ErrInsufficientFunds},
		{"core.no_offer", ErrNoOffer},
		{"core.coin_busy", ErrCoinBusy},
		{"core.no_coin_available", ErrNoCoinAvailable},
		{"core.payment_failed", ErrPaymentFailed},
		{"core.no_channel", ErrNoChannel},
		{"core.channel_closed", ErrChannelClosed},
		{"core.wrong_shard", ErrWrongShard},
		{"core.not_leader", ErrNotLeader},
		{"groupsig.revoked", groupsig.ErrRevoked},
		{"groupsig.already_certified", groupsig.ErrAlreadyCertified},
	} {
		bus.RegisterErrorCode(e.code, e.sentinel)
	}
	// Shard-routing rejections are retryable-with-redirect: the retry
	// layer follows their hints instead of giving up.
	bus.RegisterRedirectCode("core.wrong_shard")
	bus.RegisterRedirectCode("core.not_leader")
}
