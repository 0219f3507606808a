// Churnmarket: a small marketplace under peer churn, exercising everything
// the paper's downtime machinery exists for — transfers and renewals via
// the broker while owners sleep, proactive synchronization on rejoin, lazy
// synchronization driven by public-binding-list checks, and the watchers
// that keep real-time double-spending detection alive through it all.
//
// Run: go run ./examples/churnmarket
package main

import (
	"fmt"
	"log"
	"math/rand"

	"whopay"
)

const (
	numPeers = 8
	rounds   = 120
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
		Network: net, Scheme: scheme, Directory: dir,
		GroupPub: judge.GroupPublicKey(), DHTNodes: dhtAddrs(4),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	// Each binding lives on 3 of the 4 DHT nodes (2-of-3 write and read
	// quorums), so the watchers keep working whichever node is asked.
	cluster, err := whopay.NewDHTCluster(net, scheme, 4, broker.PublicKey())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	peers := make([]*whopay.Peer, numPeers)
	online := make([]bool, numPeers)
	for i := range peers {
		mode := whopay.SyncProactive
		if i%2 == 1 {
			mode = whopay.SyncLazy // odd peers reconcile lazily
		}
		p, err := whopay.NewPeer(whopay.PeerConfig{
			ID:      fmt.Sprintf("trader-%d", i),
			Network: net, Scheme: scheme, Directory: dir,
			BrokerAddr: broker.Addr(), BrokerPub: broker.PublicKey(), Judge: judge,
			DHTNodes: cluster.Addrs(), WatchHeldCoins: true,
			SyncMode: mode, Prober: net, Presence: net,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
		online[i] = true
	}

	rng := rand.New(rand.NewSource(99))
	payments, failures := 0, 0
	for round := 0; round < rounds; round++ {
		// Churn: each round one random peer flips availability.
		flip := rng.Intn(numPeers)
		if online[flip] {
			peers[flip].GoOffline()
			online[flip] = false
		} else {
			if err := peers[flip].GoOnline(); err != nil {
				log.Fatal(err)
			}
			online[flip] = true
		}

		// Trades: a few random payments among online peers.
		for t := 0; t < 3; t++ {
			payer := rng.Intn(numPeers)
			payee := rng.Intn(numPeers)
			if payer == payee || !online[payer] || !online[payee] {
				continue
			}
			if _, err := peers[payer].Pay(peers[payee].Addr(), 1, whopay.PolicyI); err != nil {
				failures++
				continue
			}
			payments++
		}
	}
	for i := range peers {
		if !online[i] {
			if err := peers[i].GoOnline(); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("marketplace ran %d rounds with churn: %d payments, %d failures\n\n", rounds, payments, failures)
	var totals whopay.OpCounts
	for _, p := range peers {
		totals = totals.Add(p.Ops())
	}
	fmt.Println("aggregate peer operations:")
	printOps(totals)
	fmt.Println("\nbroker operations (note how little reaches it):")
	printOps(broker.Ops())

	alerts := 0
	for _, p := range peers {
		alerts += len(p.Alerts())
	}
	fmt.Printf("\nfalse double-spend alarms under churn: %d (watchers stayed quiet — no fraud happened)\n", alerts)
	fmt.Printf("broker handled %.1f%% of all operations; the peers did the rest\n",
		100*float64(broker.Ops().Total())/float64(totals.Total()+broker.Ops().Total()))
}

func printOps(ops whopay.OpCounts) {
	for op := whopay.Op(0); op < 10; op++ {
		if n := ops.Get(op); n > 0 {
			fmt.Printf("  %-20s %6d\n", op.String(), n)
		}
	}
}

func dhtAddrs(n int) []whopay.Address {
	out := make([]whopay.Address, n)
	for i := range out {
		out[i] = whopay.Address(fmt.Sprintf("dht:%d", i))
	}
	return out
}
