package whopay_test

import (
	"fmt"
	"log"

	"whopay"
)

// Example walks the paper's Figure 1 lifecycle through the public API:
// purchase, issue, transfer via the owner, deposit.
func Example() {
	net := whopay.NewMemoryNetwork()
	scheme := whopay.Ed25519()
	judge, err := whopay.NewJudge(scheme)
	if err != nil {
		log.Fatal(err)
	}
	dir := whopay.NewDirectory()
	broker, err := whopay.NewBroker(whopay.BrokerConfig{
		Network: net, Scheme: scheme, Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	newPeer := func(id string) *whopay.Peer {
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	alice := newPeer("alice")
	bob := newPeer("bob")
	carol := newPeer("carol")
	defer alice.Close()
	defer bob.Close()
	defer carol.Close()

	id, err := alice.Purchase(1, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), id); err != nil {
		log.Fatal(err)
	}
	if err := bob.TransferTo(carol.Addr(), id); err != nil {
		log.Fatal(err)
	}
	if err := carol.Deposit(id, "payout"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("credited:", broker.Balance("payout"))
	// Output: credited: 1
}

// ExamplePeer_OpenChannel shows a micropayment channel (DESIGN.md §12):
// unit payments stream as PayWord hash-chain preimages — no signatures, no
// broker — and the accumulated window settles as a single WhoPay payment on
// close.
func ExamplePeer_OpenChannel() {
	net := whopay.NewMemoryNetwork()
	scheme := whopay.Ed25519()
	judge, err := whopay.NewJudge(scheme)
	if err != nil {
		log.Fatal(err)
	}
	dir := whopay.NewDirectory()
	broker, err := whopay.NewBroker(whopay.BrokerConfig{
		Network: net, Scheme: scheme, Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	mk := func(id string) *whopay.Peer {
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	payer := mk("payer")
	vendor := mk("vendor")
	defer payer.Close()
	defer vendor.Close()

	root, err := payer.OpenChannel(vendor.Addr(), whopay.ChannelOptions{Capacity: 64})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := payer.ChannelPay(root); err != nil { // a hash check, off the hot path
			log.Fatal(err)
		}
	}
	settled, err := payer.CloseChannel(root) // one WhoPay payment for the window
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("settled:", settled)
	for _, id := range vendor.HeldCoins() { // the settlement coin is real value
		if err := vendor.Deposit(id, "vendor-payout"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("credited:", broker.Balance("vendor-payout"))
	// Output:
	// settled: 5
	// credited: 5
}

// ExamplePeer_Pay shows policy-driven payment: the peer picks the cheapest
// available method per the paper's policy I.
func ExamplePeer_Pay() {
	net := whopay.NewMemoryNetwork()
	scheme := whopay.Ed25519()
	judge, _ := whopay.NewJudge(scheme)
	dir := whopay.NewDirectory()
	broker, err := whopay.NewBroker(whopay.BrokerConfig{
		Network: net, Scheme: scheme, Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	mk := func(id string) *whopay.Peer {
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
			Prober: net, Presence: net,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	payer := mk("payer")
	payee := mk("payee")
	defer payer.Close()
	defer payee.Close()

	method, err := payer.Pay(payee.Addr(), 1, whopay.PolicyI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("empty wallet pays by:", method)
	method, err = payee.Pay(payer.Addr(), 1, whopay.PolicyI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("received coin pays by:", method)
	// Output:
	// empty wallet pays by: purchase-issue
	// received coin pays by: transfer-online
}
