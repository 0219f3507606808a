package whopay

// Re-exports of the substrate packages a WhoPay deployment composes with:
// the DHT behind real-time double-spending detection, the indirection layer
// behind owner-anonymous coins, PayWord/lottery micropayment aggregation,
// group signatures, and Shamir secret sharing. Examples and downstream users
// reach everything through this facade.

import (
	"whopay/internal/bus"
	"whopay/internal/dht"
	"whopay/internal/groupsig"
	"whopay/internal/indirect"
	"whopay/internal/layered"
	"whopay/internal/payword"
	"whopay/internal/shamir"
	"whopay/internal/sig"
)

// DHT substrate (paper Section 5.1).
type (
	// DHTCluster is the trusted public-binding-list infrastructure.
	DHTCluster = dht.Cluster
	// DHTClient reads/writes/subscribes to the public binding list.
	DHTClient = dht.Client
)

// NewDHTCluster starts n DHT nodes at the default N/W/R = 3/2/2 quorums
// (clamped to n); trusted keys (the broker's) may write to any slot.
func NewDHTCluster(network Network, scheme Scheme, n int, trusted ...sig.PublicKey) (*DHTCluster, error) {
	return dht.NewCluster(network, scheme, n, trusted...)
}

// Indirection substrate (paper Section 5.2, owner-anonymous coins).
type (
	// IndirectServer forwards messages to anonymous trigger targets.
	IndirectServer = indirect.Server
)

// NewIndirectServer starts one indirection server.
func NewIndirectServer(network Network, addr Address, scheme Scheme) (*IndirectServer, error) {
	return indirect.NewServer(network, addr, scheme)
}

// PayWord micropayment aggregation (paper Section 7).
type (
	// PayWordChain is the payer side of a hash chain.
	PayWordChain = payword.Chain
	// PayWordVendor is the vendor side.
	PayWordVendor = payword.Vendor
	// PayWordCommitment backs a chain.
	PayWordCommitment = payword.Commitment
	// PayWordPayment is one released payword.
	PayWordPayment = payword.Payment
	// LotteryTicket is a probabilistic micropayment.
	LotteryTicket = payword.Ticket
	// KeyPair bundles a public and private key.
	KeyPair = sig.KeyPair
	// Suite bundles a scheme with an optional micro-op recorder.
	Suite = sig.Suite
)

// NewPayWordChain builds a vendor-dedicated chain of n unit payments.
func NewPayWordChain(suite Suite, payerKeys KeyPair, vendor string, n int) (*PayWordChain, error) {
	return payword.NewChain(suite, payerKeys, vendor, n)
}

// NewPayWordVendor accepts a commitment and verifies subsequent payments.
func NewPayWordVendor(suite Suite, name string, c PayWordCommitment) (*PayWordVendor, error) {
	return payword.NewVendor(suite, name, c)
}

// VerifyPayWordClaim validates settlement evidence and returns the owed
// units.
func VerifyPayWordClaim(suite Suite, claim payword.SettlementClaim) (int, error) {
	return payword.VerifyClaim(suite, claim)
}

// Group signatures and escrow.
type (
	// GroupSignature is an anonymous, judge-openable signature.
	GroupSignature = groupsig.Signature
	// GroupMemberKey is a member's signing key.
	GroupMemberKey = groupsig.MemberKey
	// EscrowShare is one judge-panel share of the master key.
	EscrowShare = groupsig.KeyShare
	// SecretShare is a raw Shamir share.
	SecretShare = shamir.Share
)

// SplitSecret shares a secret k-of-n (Shamir).
func SplitSecret(secret []byte, k, n int) ([]SecretShare, error) { return shamir.Split(secret, k, n) }

// CombineSecret reconstructs a shared secret.
func CombineSecret(shares []SecretShare, secretLen int) ([]byte, error) {
	return shamir.Combine(shares, secretLen)
}

// Layered coins (paper Section 7): offline transfer without the broker by
// appending holder-signed layers, bounded by a maximum layer count.
type (
	// LayeredCoin is a coin plus its offline hop chain.
	LayeredCoin = layered.Coin
	// Layer is one offline hop.
	Layer = layered.Layer
)

// LayeredHop appends an offline hop to a layered coin.
func LayeredHop(suite Suite, lc *LayeredCoin, holderPriv []byte, member *GroupMemberKey, nextHolder []byte, maxLayers int) (*LayeredCoin, error) {
	return layered.Hop(suite, lc, holderPriv, member, nextHolder, maxLayers)
}

// MemoryNetwork is the in-process transport.
type MemoryNetwork = bus.Memory
