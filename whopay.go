// Package whopay is a complete implementation of WhoPay, the scalable and
// anonymous peer-to-peer payment system of Wei, Chen, Smith and Vo (UC
// Berkeley UCB/CSD-5-1386, ICDCS 2006), together with every substrate the
// paper relies on: group signatures with judge-side opening, Shamir key
// escrow, blind signatures, PayWord/lottery micropayment aggregation, a
// Chord-style access-controlled DHT for real-time double-spending
// detection, an i3-style indirection layer for owner-anonymous coins, the
// PPay and centralized-anonymous baselines, and the discrete-event
// simulator that regenerates the paper's entire evaluation.
//
// # Quick start
//
//	net := whopay.NewMemoryNetwork()
//	judge, _ := whopay.NewJudge(whopay.Ed25519())
//	dir := whopay.NewDirectory()
//	broker, _ := whopay.NewBroker(whopay.BrokerConfig{
//	        Network: net, Scheme: whopay.Ed25519(),
//	        Directory: dir, GroupPub: judge.GroupPublicKey(),
//	})
//	alice, _ := whopay.NewPeer(whopay.PeerConfig{
//	        ID: "alice", Network: net, Scheme: whopay.Ed25519(),
//	        Directory: dir, BrokerAddr: broker.Addr(),
//	        BrokerPub: broker.PublicKey(), Judge: judge,
//	})
//	// ... create bob, then:
//	id, _ := alice.Purchase(1, false)
//	_ = alice.IssueTo(bob.Addr(), id)
//
// Coins are public keys; holdership is a signed binding to a fresh one-time
// holder key, so payments are anonymous; group signatures keep them fair
// (the judge can open them under investigation); transfers are serviced by
// coin owners, not the broker, so the system scales.
//
// See the examples directory for runnable scenarios and cmd/whopay-sim for
// the paper's evaluation harness.
package whopay

import (
	"whopay/internal/bus"
	"whopay/internal/core"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

// Core entities.
type (
	// Broker is WhoPay's central bank (mint, redemption, downtime
	// service, fraud adjudication).
	Broker = core.Broker
	// BrokerConfig configures a Broker.
	BrokerConfig = core.BrokerConfig
	// Peer is a WhoPay participant (owner, holder, payer, payee).
	Peer = core.Peer
	// PeerConfig configures a Peer.
	PeerConfig = core.PeerConfig
	// Judge is the fairness authority (group manager).
	Judge = core.Judge
	// Directory is the trusted identity/address registry.
	Directory = core.Directory
	// Shop is a coin shop (issuer-anonymity extension).
	Shop = core.Shop
	// FraudCase is a broker-recorded fraud investigation.
	FraudCase = core.FraudCase
	// FraudAlert is a peer-side double-spend alarm.
	FraudAlert = core.FraudAlert
	// Policy is a spending-method preference order.
	Policy = core.Policy
	// Method is one payment method.
	Method = core.Method
	// Op is a coarse-grained protocol operation.
	Op = core.Op
	// OpCounts tallies operations by type.
	OpCounts = core.OpCounts
	// SyncMode selects proactive or lazy owner synchronization.
	SyncMode = core.SyncMode
	// Scheme is a pluggable signature scheme.
	Scheme = sig.Scheme
	// Network is the message transport abstraction.
	Network = bus.Network
	// Address names an endpoint on a Network.
	Address = bus.Address
	// WALConfig configures an entity's write-ahead log; set it as
	// BrokerConfig/PeerConfig.Persistence (nil keeps the entity purely
	// in-memory). See DESIGN.md §10.
	WALConfig = wal.Config
	// FsyncPolicy selects when journal appends reach stable storage.
	FsyncPolicy = wal.Policy
	// ChannelOptions configures a micropayment channel opened with
	// Peer.OpenChannel: capacity (PayWord chain length), auto-settle
	// threshold, TTL, and optional lottery terms. See DESIGN.md §12.
	ChannelOptions = core.ChannelOptions
	// ChannelReceipt is the payer-visible outcome of one
	// Peer.ChannelPay: the vendor-reported unsettled balance and, on
	// lottery channels, whether this payment's ticket won.
	ChannelReceipt = core.ChannelReceipt
)

// DefaultChannelCapacity is the chain length used when
// ChannelOptions.Capacity is zero.
const DefaultChannelCapacity = core.DefaultChannelCapacity

// Fsync policies for WALConfig.Policy.
const (
	FsyncNever    = wal.FsyncNever
	FsyncInterval = wal.FsyncInterval
	FsyncAlways   = wal.FsyncAlways
)

// Policies and sync modes (paper Section 6.1 / 5.2).
const (
	PolicyI        = core.PolicyI
	PolicyIIa      = core.PolicyIIa
	PolicyIIb      = core.PolicyIIb
	PolicyIII      = core.PolicyIII
	SyncProactive  = core.SyncProactive
	SyncLazy       = core.SyncLazy
	DefaultRenewal = core.DefaultRenewalPeriod
)

// Operation kinds (the paper's load-study vocabulary).
const (
	OpPurchase         = core.OpPurchase
	OpIssue            = core.OpIssue
	OpTransfer         = core.OpTransfer
	OpDeposit          = core.OpDeposit
	OpRenewal          = core.OpRenewal
	OpDowntimeTransfer = core.OpDowntimeTransfer
	OpDowntimeRenewal  = core.OpDowntimeRenewal
	OpSync             = core.OpSync
	OpCheck            = core.OpCheck
	OpLazySync         = core.OpLazySync
)

// NewBroker starts a broker.
func NewBroker(cfg BrokerConfig) (*Broker, error) { return core.NewBroker(cfg) }

// NewPeer starts a peer.
func NewPeer(cfg PeerConfig) (*Peer, error) { return core.NewPeer(cfg) }

// RecoverBroker rebuilds a broker from its write-ahead log (the config's
// Persistence must point at the dead broker's journal directory).
func RecoverBroker(cfg BrokerConfig) (*Broker, error) { return core.RecoverBroker(cfg) }

// RecoverPeer rebuilds a peer and its wallet from its write-ahead log.
func RecoverPeer(cfg PeerConfig) (*Peer, error) { return core.RecoverPeer(cfg) }

// NewJudge creates the fairness authority.
func NewJudge(scheme Scheme) (*Judge, error) { return core.NewJudge(scheme) }

// NewDirectory creates an identity registry.
func NewDirectory() *Directory { return core.NewDirectory() }

// NewShop upgrades a peer into a coin shop.
func NewShop(p *Peer, feePercent int) *Shop { return core.NewShop(p, feePercent) }

// NewMemoryNetwork creates the in-process transport (tests, simulations,
// single-process demos). For real deployments use the TCP transport in
// cmd/whopayd.
func NewMemoryNetwork() *bus.Memory { return bus.NewMemory() }

// Ed25519 returns the production signature scheme — what whopayd, the load
// harness, and the benchmark run. Same protocol operations as ECDSA at about
// 70% of its sign and verify cost.
func Ed25519() Scheme { return sig.Ed25519{} }

// ECDSA returns the paper's DSA stand-in (P-256), kept for Table 2: the
// paper measured DSA-1024, and ECDSA has the same operation mix.
func ECDSA() Scheme { return sig.ECDSA{} }
