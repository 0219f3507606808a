// Filesharing: the paper's motivating application — "a pay-per-download
// file sharing system, where a virtual payment system is used to encourage
// fair sharing of resources among peers and discourage free riders"
// (Section 1) — combined with the Section 7 extension: PayWord hash chains
// aggregate many per-chunk micropayments into a few WhoPay settlements
// ("each pair of users maintains a soft credit window between themselves
// and only makes payments when this window reaches a threshold value").
//
// Leechers pay seeders one payword per 64 KiB chunk; when a seeder's credit
// window hits the threshold, the aggregate is settled with one real WhoPay
// payment. The run prints how many micropayments collapsed into how many
// coin transfers.
//
// Run: go run ./examples/filesharing
package main

import (
	"fmt"
	"log"

	"whopay"
)

const (
	fileChunks     = 48  // chunks per file
	chainLength    = 200 // paywords per chain (credit ceiling per pair)
	settleEvery    = 25  // credit window: settle after this many units
	numLeechers    = 3
	filesPerLeech  = 2
	coinValueUnits = settleEvery
)

type seeder struct {
	peer    *whopay.Peer
	suite   whopay.Suite
	vendors map[string]*whopay.PayWordVendor // per leecher
	settled int
	chunks  int
}

type leecher struct {
	name   string
	peer   *whopay.Peer
	suite  whopay.Suite
	keys   whopay.KeyPair
	chains map[string]*whopay.PayWordChain // per seeder
	micro  int
}

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
			Prober: net, Presence: net,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	suite := whopay.Suite{Scheme: scheme}
	seed := &seeder{peer: newPeer("seeder"), suite: suite, vendors: map[string]*whopay.PayWordVendor{}}
	defer seed.peer.Close()

	leechers := make([]*leecher, numLeechers)
	for i := range leechers {
		name := fmt.Sprintf("leecher-%d", i)
		keys, err := scheme.GenerateKey()
		if err != nil {
			log.Fatal(err)
		}
		leechers[i] = &leecher{
			name: name, peer: newPeer(name), suite: suite, keys: keys,
			chains: map[string]*whopay.PayWordChain{},
		}
		defer leechers[i].peer.Close()
	}

	fmt.Printf("swarm: 1 seeder, %d leechers; %d chunks per file; 1 payword per chunk; settle every %d units\n\n",
		numLeechers, fileChunks, settleEvery)

	for _, l := range leechers {
		for f := 0; f < filesPerLeech; f++ {
			if err := download(l, seed); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Final settlement of outstanding windows.
	for _, l := range leechers {
		v := seed.vendors[l.name]
		if v == nil {
			continue
		}
		outstanding := v.Owed() % settleEvery
		if outstanding > 0 {
			fmt.Printf("%s: %d units below the window stay unsettled (soft credit)\n", l.name, outstanding)
		}
	}

	fmt.Println()
	fmt.Printf("micropayments made:    %d paywords (hash operations only)\n", seed.chunks)
	fmt.Printf("WhoPay settlements:    %d coin payments of %d units each\n", seed.settled, coinValueUnits)
	fmt.Printf("settlement reduction:  %.0fx fewer payment-system transactions\n",
		float64(seed.chunks)/float64(max(seed.settled, 1)))
	fmt.Printf("seeder wallet value:   %d units\n", seed.peer.HeldValue())
	fmt.Printf("broker payments seen:  %d (vs %d chunk payments it never saw)\n",
		broker.Ops().Get(whopay.OpPurchase), seed.chunks)
}

// download streams one file: a payword per chunk, settled via WhoPay
// whenever the window fills.
func download(l *leecher, seed *seeder) error {
	// First contact: hand the seeder a signed PayWord commitment.
	if l.chains[seed.peer.ID()] == nil {
		chain, err := whopay.NewPayWordChain(l.suite, l.keys, seed.peer.ID(), chainLength)
		if err != nil {
			return err
		}
		l.chains[seed.peer.ID()] = chain
		vendor, err := whopay.NewPayWordVendor(seed.suite, seed.peer.ID(), chain.Commitment())
		if err != nil {
			return err
		}
		seed.vendors[l.name] = vendor
		fmt.Printf("%s opened a %d-unit payword chain with the seeder\n", l.name, chainLength)
	}
	chain := l.chains[seed.peer.ID()]
	vendor := seed.vendors[l.name]

	for chunk := 0; chunk < fileChunks; chunk++ {
		p, err := chain.Pay()
		if err != nil {
			return err
		}
		if _, err := vendor.Receive(p); err != nil {
			return fmt.Errorf("seeder rejected chunk payment: %w", err)
		}
		l.micro++
		seed.chunks++
		// Window full? Settle the aggregate with one real payment.
		if vendor.Owed()%settleEvery == 0 {
			method, err := l.peer.Pay(seed.peer.Addr(), coinValueUnits, whopay.PolicyI)
			if err != nil {
				return fmt.Errorf("settlement: %w", err)
			}
			seed.settled++
			fmt.Printf("  %s settled %d units via WhoPay (%v)\n", l.name, settleEvery, method)
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
