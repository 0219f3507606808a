// Offlinepay: the paper's Section 7 "layered coins" extension — paying
// while BOTH the coin's owner and the broker are unreachable, by appending
// holder-signed layers to the coin. The run then demonstrates the two
// trade-offs the paper calls out: coins grow with every hop, and an
// offline double-spend fork is only caught at redemption — where the
// judge-openable layer signatures identify the cheater.
//
// Run: go run ./examples/offlinepay
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
	owner := newPeer("owner")
	alice := newPeer("alice")
	bob := newPeer("bob")
	carol := newPeer("carol")
	defer owner.Close()
	defer alice.Close()
	defer bob.Close()
	defer carol.Close()

	id, err := owner.Purchase(1, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := owner.IssueTo(alice.Addr(), id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("alice received a coin; now the owner AND the broker become unreachable ...")
	owner.GoOffline()

	// Alice converts her held coin into a layered coin: from here on, the
	// chain itself is the money and hops need no network at all.
	lc, aliceKeys, err := alice.ExportLayered(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layered coin exported: %d bytes, 0 layers\n", lc.Size())

	bobKeys, err := scheme.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	lc, err = whopay.LayeredHop(alice.Suite(), lc, aliceKeys.Private, alice.GroupMember(), bobKeys.Public, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice -> bob offline: %d bytes, 1 layer (the growth the paper warns about)\n", lc.Size())

	carolKeys, err := scheme.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	forkCarol, err := whopay.LayeredHop(bob.Suite(), lc, bobKeys.Private, bob.GroupMember(), carolKeys.Public, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob -> carol offline: %d bytes, 2 layers\n", forkCarol.Size())

	// Bob cheats: he forks the chain and 'pays' a rival with the same
	// coin. Offline, nothing can stop him — both chains verify.
	rivalKeys, err := scheme.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	forkRival, err := whopay.LayeredHop(bob.Suite(), lc, bobKeys.Private, bob.GroupMember(), rivalKeys.Public, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bob double-spends offline: a second fork of the same coin — undetectable until redemption")

	// Back online: carol redeems first.
	if err := carol.DepositLayered(forkCarol, carolKeys.Private, "carol-ref"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol redeemed her fork: broker credited %d\n", broker.Balance("carol-ref"))

	// The rival's fork bounces, and the evidence identifies bob.
	if err := carol.DepositLayered(forkRival, rivalKeys.Private, "rival-ref"); err != nil {
		fmt.Printf("rival's fork rejected: %v\n", err)
	}
	for _, c := range broker.FraudCases() {
		fmt.Printf("fraud case #%d (%s): %s\n", c.ID, c.Kind, c.Verdict)
		for _, pair := range c.GroupSigs {
			msg := pair[0].([]byte)
			gs := pair[1].(whopay.GroupSignature)
			if identity, err := judge.Open(msg, gs); err == nil {
				fmt.Printf("  judge opened a layer signature: signed by %q\n", identity)
			}
		}
	}
}
