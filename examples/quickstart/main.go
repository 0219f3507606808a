// Quickstart: the full WhoPay coin lifecycle from the paper's Figure 1 —
// purchase, issue, anonymous transfer via the owner, deposit — followed by
// a double-spend attempt that the real-time detection machinery catches and
// the judge resolves by opening a group signature.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"whopay"
)

func main() {
	scheme := whopay.Ed25519()
	net := whopay.NewMemoryNetwork()

	// Trusted infrastructure: the judge (fairness), the directory (PKI),
	// the broker (mint), and the DHT (public binding list).
	judge, err := whopay.NewJudge(scheme)
	if err != nil {
		log.Fatal(err)
	}
	dir := whopay.NewDirectory()
	broker, err := whopay.NewBroker(whopay.BrokerConfig{
		Network:   net,
		Scheme:    scheme,
		Directory: dir,
		GroupPub:  judge.GroupPublicKey(),
		DHTNodes:  dhtAddrs(4),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	cluster, err := whopay.NewDHTCluster(net, scheme, 4, 2, broker.PublicKey())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	newPeer := func(id string) *whopay.Peer {
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID:                 id,
			Network:            net,
			Scheme:             scheme,
			Directory:          dir,
			BrokerAddr:         broker.Addr(),
			BrokerPub:          broker.PublicKey(),
			Judge:              judge,
			DHTNodes:           cluster.Addrs(),
			PublishBindings:    true,
			WatchHeldCoins:     true,
			CheckPublicBinding: true,
			Prober:             net,
			Presence:           net,
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

	fmt.Println("== The coin lifecycle (paper Figure 1) ==")
	id, err := alice.Purchase(1, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. alice purchased coin %s from the broker\n", id)
	if err := alice.IssueTo(bob.Addr(), id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("2. alice issued it to bob — bob's holdership is a fresh one-time key, invisible to everyone")
	if err := bob.TransferTo(carol.Addr(), id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("3. bob transferred it to carol through alice (the owner) — alice cannot tell who paid whom")
	if err := carol.Deposit(id, "carols-payout-ref"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. carol deposited it anonymously; broker credited the payout ref: %d unit(s)\n\n",
		broker.Balance("carols-payout-ref"))

	fmt.Println("== Double spending: detected in real time, punished fairly ==")
	id2, err := alice.Purchase(1, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.IssueTo(bob.Addr(), id2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("alice issued a second coin to bob ...")

	// Alice turns rogue: she signs a conflicting binding moving bob's
	// coin to an accomplice and publishes it to the public binding list.
	accomplice, err := whopay.Ed25519().GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	ob, _ := alice.OwnerBinding(id2)
	forged, err := alice.ForgeRebind(id2, accomplice.Public, ob.Seq+1)
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.PublishForgedBinding(id2, forged); err != nil {
		log.Fatal(err)
	}
	fmt.Println("... then she re-bound it to an accomplice behind bob's back!")

	for _, alert := range bob.Alerts() {
		fmt.Printf("bob's DHT watch fired: coin %s re-bound without consent\n", alert.CoinID)
		fmt.Printf("broker verdict after the audit-trail dispute: %s\n", alert.Verdict)
	}
	if broker.Frozen("alice") {
		fmt.Println("alice is frozen: no further purchases for the double spender")
	}
	for _, c := range broker.FraudCases() {
		fmt.Printf("fraud case #%d (%s): %s\n", c.ID, c.Kind, c.Verdict)
	}
}

func dhtAddrs(n int) []whopay.Address {
	out := make([]whopay.Address, n)
	for i := range out {
		out[i] = whopay.Address(fmt.Sprintf("dht:%d", i))
	}
	return out
}
