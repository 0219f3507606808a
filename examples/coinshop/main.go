// Coinshop: the paper's issuer-anonymity extensions (Section 5.2) —
// approach two, coin shops ("peers do not own, and hence never issue coins
// ... peers spend coins only using the transfer procedure, which is
// anonymous"), and approach three, owner-anonymous coins reached through an
// i3-style indirection layer so not even coin ownership is exposed.
//
// Run: go run ./examples/coinshop
package main

import (
	"fmt"
	"log"

	"whopay"
)

func main() {
	scheme := whopay.Ed25519()
	net := whopay.NewMemoryNetwork()
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

	// Two indirection servers shard the anonymous-owner handles.
	for i := 0; i < 2; i++ {
		srv, err := whopay.NewIndirectServer(net, whopay.Address(fmt.Sprintf("i3:%d", i)), scheme)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
	}
	indirAddrs := []whopay.Address{"i3:0", "i3:1"}

	newPeer := func(id string) *whopay.Peer {
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID: id, Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
			IndirectServers: indirAddrs, Prober: net, Presence: net,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	fmt.Println("== Approach 2: coin shops ==")
	shopPeer := newPeer("acme-coins")
	defer shopPeer.Close()
	shop := whopay.NewShop(shopPeer, 2)
	if err := shop.Stock(10, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the shop stocked %d coins (it is in this business for profit, not privacy)\n", shop.Inventory(1))

	alice := newPeer("alice")
	bob := newPeer("bob")
	carol := newPeer("carol")
	defer alice.Close()
	defer bob.Close()
	defer carol.Close()

	// Customers buy from the shop (the only identified interaction), then
	// every subsequent spend is an anonymous transfer.
	for _, customer := range []*whopay.Peer{alice, bob} {
		for i := 0; i < 2; i++ {
			if _, err := shop.Vend(customer.Addr(), 1); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("alice and bob bought 2 coins each from the shop")

	for _, hop := range []struct {
		from *whopay.Peer
		to   *whopay.Peer
	}{{alice, carol}, {bob, carol}, {carol, alice}} {
		method, err := hop.from.Pay(hop.to.Addr(), 1, whopay.PolicyIII)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s paid %s: %v (the shop serviced it; nobody's identity crossed the wire)\n",
			hop.from.ID(), hop.to.ID(), method)
	}
	fmt.Printf("the shop serviced %d transfers of its coins\n\n", shop.Ops().Get(whopay.OpTransfer))

	fmt.Println("== Approach 3: owner-anonymous coins over the indirection layer ==")
	dave := newPeer("dave")
	erin := newPeer("erin")
	defer dave.Close()
	defer erin.Close()

	id, err := dave.Purchase(1, true) // anonymous purchase: no owner in the coin
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dave purchased owner-anonymous coin %s — it names a handle, not dave\n", id)
	if err := dave.IssueTo(erin.Addr(), id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dave issued it to erin, proving ownership with the coin key and a group signature")
	if err := erin.TransferTo(alice.Addr(), id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("erin paid alice: the transfer request traveled through the i3 servers to the hidden owner")
	fmt.Printf("dave (unknowably) serviced %d transfer(s)\n", dave.Ops().Get(whopay.OpTransfer))
	if err := alice.Deposit(id, "alice-ref"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice deposited it; broker credited %d without learning the chain of hands\n",
		broker.Balance("alice-ref"))
}
