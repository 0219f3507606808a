// Command whopayd runs a WhoPay deployment over real TCP sockets: a broker,
// a judge, a DHT-less directory, and a configurable number of peers, then
// drives a demonstration payment scenario end to end — purchase, issue,
// multi-hop anonymous transfers, a renewal, a downtime operation through the
// broker after an owner "disconnects", and a final deposit.
//
// All traffic — payments AND judge enrollment — crosses real sockets on the
// framed binary wire (see PROTOCOL.md, "Wire format") under the production
// scheme, sig.Default() (Ed25519). Only the identity directory is shared
// in-process configuration (the PKI of the paper's model). Note the enrollment
// responses carry credential private keys: production transports must add
// TLS.
//
// With -admin the process also serves the observability admin endpoint
// (DESIGN.md §11): /metrics, /healthz, /traces, and /debug/pprof. All
// entities share one registry, so a single multi-hop transfer shows up as
// one trace with spans from payer, owner, payee, and broker; the demo
// prints one such trace before exiting. Use -linger to keep the process
// (and the admin endpoint) alive after the demo for scraping.
//
// Usage:
//
//	whopayd -peers 4 -hops 3 -admin 127.0.0.1:9090 -linger 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/coin"
	"whopay/internal/core"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/federation"
	"whopay/internal/obs"
	"whopay/internal/sig"
	"whopay/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "whopayd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		numPeers = flag.Int("peers", 4, "number of peers (≥ 2)")
		hops     = flag.Int("hops", 3, "transfer hops for the demo coin (clamped to peers-1)")
		host     = flag.String("host", "127.0.0.1", "host/interface to bind")
		admin    = flag.String("admin", "", "serve the admin endpoint (/metrics, /healthz, /traces, pprof) on this address")
		linger   = flag.Duration("linger", 0, "keep the process alive this long after the demo (for scraping the admin endpoint)")
		chanPays = flag.Int("channel-pays", 12, "paywords streamed in the micropayment-channel demo (0: skip the demo)")
		shards   = flag.Int("shards", 1, "federate the trust root over this many broker shards (coin IDs partition by hash)")
		replicas = flag.Int("replicas", 1, "replicas per broker shard (WAL-streamed mirrors with lease failover)")
		leaseTTL = flag.Duration("lease-ttl", 500*time.Millisecond, "federation lease TTL — the worst-case leaderless window after a leader crash")
		fedKill  = flag.Bool("fed-kill", false, "federated demo: crash shard 0's leader after the demo, watch /healthz flip, and pay again post-failover")
		dhtNodes = flag.Int("dht-nodes", 0, "run the real-time double-spend DHT with this many replicated nodes; peers publish and watch bindings (0: the DHT-less demo)")
		dhtNWR   = flag.String("dht-nwr", "3/2/2", "DHT replication quorums as N/W/R — writes ack after W of N replicas, reads consult R (with -dht-nodes; see DESIGN.md §14)")
		dhtLease = flag.Duration("dht-lease", 150*time.Millisecond, "hot-coin lease TTL for the client-side read cache (with -dht-nodes)")
	)
	flag.Parse()
	if *numPeers < 2 {
		return fmt.Errorf("need at least 2 peers")
	}
	if *hops > *numPeers-1 {
		*hops = *numPeers - 1
	}
	if *hops < 1 {
		return fmt.Errorf("hops must be ≥ 1")
	}

	// Observability is opt-in: without -admin, reg stays nil and every
	// instrumentation hook below is a no-op.
	var reg *obs.Registry
	var adminSrv *obs.Server
	if *admin != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*admin, reg)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer srv.Close()
		adminSrv = srv
		fmt.Printf("admin endpoint on http://%s (/metrics /healthz /traces /debug/pprof)\n", srv.Addr())
	}

	core.RegisterWireTypes()
	network := tcpbus.New(tcpbus.WithObs(reg))
	scheme := sig.Default()
	dir := core.NewDirectory()

	judge, err := core.NewJudge(scheme)
	if err != nil {
		return err
	}
	// The judge serves enrollment over TCP like everything else.
	judgeSrv, err := core.NewJudgeServer(network, bus.Address(*host+":0"), judge, scheme)
	if err != nil {
		return err
	}
	defer judgeSrv.Close()
	fmt.Printf("judge listening on %s\n", judgeSrv.Addr())

	// The replicated double-spend DHT (DESIGN.md §14). The cluster starts
	// before the trust root because brokers and peers need the node
	// addresses; the broker's key is trusted into the ring right after.
	var (
		dhtCl    *dht.Cluster
		dhtAddrs []bus.Address
		dhtRep   *replica.Config
	)
	if *dhtNodes > 0 {
		cfg, err := parseNWR(*dhtNWR)
		if err != nil {
			return fmt.Errorf("-dht-nwr: %w", err)
		}
		cfg.LeaseTTL = *dhtLease
		dhtRep = &cfg
		dhtCl, err = dht.NewClusterWithConfig(dht.ClusterConfig{
			Network:     network,
			Scheme:      scheme,
			Nodes:       *dhtNodes,
			AddrFor:     func(int) bus.Address { return bus.Address(*host + ":0") },
			Obs:         reg,
			Replication: dhtRep,
		})
		if err != nil {
			return err
		}
		defer dhtCl.Close()
		dhtAddrs = dhtCl.Addrs()
		norm := cfg.WithDefaults(*dhtNodes)
		fmt.Printf("dht: %d nodes, quorums %d/%d/%d, lease TTL %v\n",
			*dhtNodes, norm.N, norm.W, norm.R, *dhtLease)
		for i, a := range dhtAddrs {
			fmt.Printf("dht node %d listening on %s\n", i, a)
		}
	}

	// The trust root: a single broker, or a federated cluster of
	// WAL-replicated shards when -shards/-replicas federate it.
	var (
		broker     *core.Broker
		fed        *federation.Cluster
		brokerAddr bus.Address
		brokerPub  sig.PublicKey
		router     core.ShardRouter
		retry      *bus.RetryPolicy
	)
	if *shards > 1 || *replicas > 1 {
		federation.RegisterWireTypes()
		fedDir, err := os.MkdirTemp("", "whopayd-fed-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(fedDir)
		fed, err = federation.Start(federation.Config{
			Shards:   *shards,
			Replicas: *replicas,
			Network:  network,
			Broker: core.BrokerConfig{
				Scheme:         scheme,
				Directory:      dir,
				GroupPub:       judge.GroupPublicKey(),
				DHTNodes:       dhtAddrs,
				DHTReplication: dhtRep,
			},
			Wal:      wal.Config{Dir: fedDir, Policy: wal.FsyncNever},
			LeaseTTL: *leaseTTL,
			Obs:      reg,
			AddrFor:  func(int, int) bus.Address { return bus.Address(*host + ":0") },
		})
		if err != nil {
			return err
		}
		defer fed.Close()
		for s := 0; s < fed.Shards(); s++ {
			for r := 0; r < fed.Replicas(); r++ {
				role := "follower"
				if _, rep, ok := fed.LeaderBroker(s); ok && rep == r {
					role = "leader"
				}
				fmt.Printf("federation shard %d replica %d (%s) listening on %s\n",
					s, r, role, fed.Node(s, r).Addr())
			}
		}
		brokerAddr, _ = fed.Leader(0)
		brokerPub = fed.BrokerPub(0)
		router = fed
		// The retry budget must outlive a leaderless window so payments
		// issued into a failover ride redirects to the promoted follower.
		retry = &bus.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    2 * *leaseTTL,
			Factor:      2,
		}
		if reg != nil {
			reg.RegisterHealth("bus", func() (string, error) {
				addr, ok := fed.Leader(0)
				if !ok {
					return "", fmt.Errorf("shard 0 has no leader")
				}
				conn, err := net.DialTimeout("tcp", string(addr), time.Second)
				if err != nil {
					return "", fmt.Errorf("dial shard 0 leader: %w", err)
				}
				conn.Close()
				return fmt.Sprintf("shard 0 leader %s reachable", addr), nil
			})
		}
	} else {
		broker, err = core.NewBroker(core.BrokerConfig{
			Network:        network,
			Addr:           bus.Address(*host + ":0"),
			Scheme:         scheme,
			Directory:      dir,
			GroupPub:       judge.GroupPublicKey(),
			Obs:            reg,
			DHTNodes:       dhtAddrs,
			DHTReplication: dhtRep,
		})
		if err != nil {
			return err
		}
		defer broker.Close()
		brokerAddr = broker.BoundAddr()
		brokerPub = broker.PublicKey()
		fmt.Printf("broker listening on %s\n", brokerAddr)
		if reg != nil {
			// Bus liveness: the broker listener is the hub every payment
			// touches, so a bare TCP dial is a faithful "is the bus up" probe.
			reg.RegisterHealth("bus", func() (string, error) {
				conn, err := net.DialTimeout("tcp", string(brokerAddr), time.Second)
				if err != nil {
					return "", fmt.Errorf("dial broker: %w", err)
				}
				conn.Close()
				return fmt.Sprintf("broker listener %s reachable", brokerAddr), nil
			})
		}
	}
	// The ring accepts trusted-writer publishes (downtime operations) only
	// from the trust root's keys, which exist only now.
	if dhtCl != nil {
		if fed != nil {
			for s := 0; s < fed.Shards(); s++ {
				dhtCl.Trust(fed.BrokerPub(s))
			}
		} else {
			dhtCl.Trust(broker.PublicKey())
		}
	}

	// payoutBalance reads a payout reference's credit — on its home shard
	// under federation, on the one broker otherwise.
	payoutBalance := func(ref string) int64 {
		if fed == nil {
			return broker.Balance(ref)
		}
		var total int64
		for s := 0; s < fed.Shards(); s++ {
			if b, _, ok := fed.LeaderBroker(s); ok {
				total += b.Balance(ref)
			}
		}
		return total
	}

	peers := make([]*core.Peer, *numPeers)
	for i := range peers {
		id := fmt.Sprintf("peer-%d", i)
		p, err := core.NewPeer(core.PeerConfig{
			ID:         id,
			Network:    network,
			Addr:       bus.Address(*host + ":0"),
			Scheme:     scheme,
			Directory:  dir,
			BrokerAddr: brokerAddr,
			BrokerPub:  brokerPub,
			Router:     router,
			Retry:      retry,
			JudgeAddr:  judgeSrv.Addr(),
			CredPool:   8,
			Obs:        reg,

			DHTNodes:           dhtAddrs,
			DHTReplication:     dhtRep,
			PublishBindings:    dhtCl != nil,
			WatchHeldCoins:     dhtCl != nil,
			CheckPublicBinding: dhtCl != nil,
		})
		if err != nil {
			return err
		}
		defer p.Close()
		dir.Register(id, p.PublicKey(), p.BoundAddr())
		peers[i] = p
		fmt.Printf("%s listening on %s\n", id, p.BoundAddr())
	}

	start := time.Now()
	fmt.Println()
	fmt.Println("=== purchase + issue ===")
	id, err := peers[0].Purchase(10, false)
	if err != nil {
		return fmt.Errorf("purchase: %w", err)
	}
	fmt.Printf("peer-0 purchased coin %s (value 10)\n", id)
	if err := peers[0].IssueTo(peers[1].BoundAddr(), id); err != nil {
		return fmt.Errorf("issue: %w", err)
	}
	fmt.Println("peer-0 issued the coin to peer-1 (payee stays anonymous)")

	fmt.Println()
	fmt.Println("=== anonymous multi-hop transfers via the owner ===")
	for h := 0; h < *hops; h++ {
		from := peers[1+h%(*numPeers-1)]
		to := peers[1+(h+1)%(*numPeers-1)]
		if from == to {
			continue
		}
		if err := from.TransferTo(to.BoundAddr(), id); err != nil {
			return fmt.Errorf("hop %d: %w", h, err)
		}
		fmt.Printf("hop %d: %s -> %s (owner peer-0 serviced it; identities hidden)\n", h+1, from.ID(), to.ID())
	}

	holder := currentHolder(peers, id)
	fmt.Println()
	fmt.Println("=== renewal via owner ===")
	if _, err := holder.Renew(id); err != nil {
		return fmt.Errorf("renew: %w", err)
	}
	fmt.Printf("%s renewed the coin through the owner\n", holder.ID())

	fmt.Println()
	fmt.Println("=== downtime operation via broker ===")
	peers[0].GoOffline()
	// Over TCP "offline" means the listener is really gone.
	if err := peers[0].Close(); err != nil {
		return err
	}
	fmt.Println("peer-0 (the owner) went offline")
	target := peers[*numPeers-1]
	if target == holder {
		target = peers[1]
	}
	if target == holder {
		// Two-peer deployment: the holder has nobody to pay, so exercise
		// the other downtime path — a renewal through the broker.
		if err := holder.RenewViaBroker(id); err != nil {
			return fmt.Errorf("downtime renewal: %w", err)
		}
		fmt.Printf("%s renewed the coin through the broker (owner offline)\n", holder.ID())
	} else {
		if err := holder.TransferViaBroker(target.BoundAddr(), id); err != nil {
			return fmt.Errorf("downtime transfer: %w", err)
		}
		fmt.Printf("%s paid %s through the broker\n", holder.ID(), target.ID())
		holder = target
	}

	fmt.Println()
	fmt.Println("=== deposit ===")
	if err := holder.Deposit(id, "demo-payout"); err != nil {
		return fmt.Errorf("deposit: %w", err)
	}
	fmt.Printf("%s deposited the coin; broker credited payout ref 'demo-payout' with %d\n",
		holder.ID(), payoutBalance("demo-payout"))

	if *chanPays > 0 && *numPeers >= 3 {
		fmt.Println()
		fmt.Println("=== micropayment channel ===")
		payer, vendor := peers[1], peers[*numPeers-1]
		root, err := payer.OpenChannel(vendor.BoundAddr(), core.ChannelOptions{
			Capacity: *chanPays + 1,
		})
		if err != nil {
			return fmt.Errorf("channel open: %w", err)
		}
		fmt.Printf("%s opened a %d-unit channel to %s (a PayWord chain under a fresh keypair)\n",
			payer.ID(), *chanPays+1, vendor.ID())
		for i := 0; i < *chanPays; i++ {
			if _, err := payer.ChannelPay(root); err != nil {
				return fmt.Errorf("channel pay %d: %w", i, err)
			}
		}
		owed, _, _ := payer.ChannelBalance(root)
		fmt.Printf("%s streamed %d paywords — hash checks only, no signatures, no broker; the vendor is owed %d\n",
			payer.ID(), *chanPays, owed)
		settled, err := payer.CloseChannel(root)
		if err != nil {
			return fmt.Errorf("channel close: %w", err)
		}
		fmt.Printf("channel closed: %d units settled in one WhoPay payment to %s\n", settled, vendor.ID())
	}

	if fed != nil && *fedKill {
		fmt.Println()
		fmt.Println("=== shard leader failover ===")
		killedRep, err := fed.KillLeader(0)
		if err != nil {
			return err
		}
		fmt.Printf("crashed shard 0 leader (replica %d); the %s lease TTL must expire before a mirror can promote\n",
			killedRep, *leaseTTL)
		if adminSrv != nil {
			if !awaitHealth(adminSrv.Addr(), false, 10*time.Second) {
				return fmt.Errorf("/healthz never flipped unhealthy after the leader kill")
			}
			fmt.Println("/healthz flipped unhealthy: shard 0 is leaderless")
		}
		rep, err := fed.WaitLeader(0, 15*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("shard 0 failed over to replica %d, recovered from its mirrored journal (same signing key)\n", rep)
		if adminSrv != nil {
			if !awaitHealth(adminSrv.Addr(), true, 15*time.Second) {
				return fmt.Errorf("/healthz never recovered after the failover")
			}
			fmt.Println("/healthz healthy again: the promoted follower is serving")
		}
		// A full payment against the recovered shard: purchase until a coin
		// homes on shard 0 (IDs hash-partition), then redeem it there.
		survivor := peers[1]
		const ref = "post-failover-payout"
		var onShard0 coin.ID
		for try := 0; try < 32 && onShard0 == ""; try++ {
			cid, err := survivor.Purchase(1, false)
			if err != nil {
				return fmt.Errorf("post-failover purchase: %w", err)
			}
			if err := survivor.IssueTo(survivor.BoundAddr(), cid); err != nil {
				return fmt.Errorf("post-failover issue: %w", err)
			}
			if err := survivor.Deposit(cid, ref); err != nil {
				return fmt.Errorf("post-failover deposit: %w", err)
			}
			if core.ShardOfKey(string(cid), fed.Shards()) == 0 {
				onShard0 = cid
			}
		}
		if onShard0 == "" {
			return fmt.Errorf("no purchase homed on shard 0 in 32 tries")
		}
		fmt.Printf("post-failover transfer complete: coin %s redeemed on the recovered shard, payout ref credited %d\n",
			onShard0, payoutBalance(ref))
	}

	fmt.Println()
	if broker != nil {
		fmt.Printf("broker ops: %s\n", opsString(broker.Ops()))
	} else {
		for s := 0; s < fed.Shards(); s++ {
			if b, rep, ok := fed.LeaderBroker(s); ok {
				fmt.Printf("shard %d ops (leader replica %d): %s\n", s, rep, opsString(b.Ops()))
			}
		}
	}
	fmt.Printf("owner ops:  %s\n", opsString(peers[0].Ops()))
	if dhtCl != nil {
		var hits, misses, stale, repaired uint64
		for _, p := range peers {
			h, m, s, r := p.DHTLeaseStats()
			hits, misses, stale, repaired = hits+h, misses+m, stale+s, repaired+r
		}
		fmt.Printf("dht: lease hits=%d misses=%d stale-reads=%d read-repairs=%d, replica divergence=%d\n",
			hits, misses, stale, repaired, dhtCl.Divergence())
	}
	fmt.Printf("done in %v over real TCP\n", time.Since(start).Round(time.Millisecond))

	if reg != nil {
		printSampleTrace(reg.Tracer())
		fmt.Printf("\nadmin endpoint still serving on http://%s\n", adminSrv.Addr())
	}
	if *linger > 0 {
		fmt.Printf("lingering for %v...\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// printSampleTrace picks the demo's most interesting trace — preferring a
// multi-hop transfer — and prints its span tree, showing one trace ID
// stitched across payer, owner/broker, and payee over real sockets.
func printSampleTrace(tr *obs.Tracer) {
	spans := tr.Spans()
	traceID := ""
	for _, want := range []string{"transfer", "downtime-transfer", "downtime-renewal", "deposit"} {
		for i := len(spans) - 1; i >= 0; i-- {
			if spans[i].Op == want {
				traceID = spans[i].TraceID
				break
			}
		}
		if traceID != "" {
			break
		}
	}
	if traceID == "" && len(spans) > 0 {
		traceID = spans[len(spans)-1].TraceID
	}
	if traceID == "" {
		return
	}
	recs := tr.Trace(traceID)
	fmt.Printf("\n=== sample trace %s (%d spans) ===\n", traceID, len(recs))
	inTrace := make(map[string]bool, len(recs))
	for _, r := range recs {
		inTrace[r.SpanID] = true
	}
	children := make(map[string][]obs.SpanRecord)
	var roots []obs.SpanRecord
	for _, r := range recs {
		if r.ParentID != "" && inTrace[r.ParentID] {
			children[r.ParentID] = append(children[r.ParentID], r)
		} else {
			roots = append(roots, r)
		}
	}
	var walk func(r obs.SpanRecord, depth int)
	walk = func(r obs.SpanRecord, depth int) {
		for i := 0; i < depth; i++ {
			fmt.Print("  ")
		}
		line := fmt.Sprintf("%s %s", r.Entity, r.Op)
		fmt.Printf("%-40s %v\n", line, r.Duration.Round(time.Microsecond))
		kids := children[r.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, kid := range kids {
			walk(kid, depth+1)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for _, r := range roots {
		walk(r, 0)
	}
}

// awaitHealth polls the admin endpoint's /healthz until its overall verdict
// matches wantHealthy or the timeout passes. The demo uses it to show the
// endpoint flipping unhealthy while a shard is leaderless and back once a
// follower promotes.
func awaitHealth(adminAddr string, wantHealthy bool, timeout time.Duration) bool {
	want := `"healthy":false`
	if wantHealthy {
		want = `"healthy":true`
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + adminAddr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), want) {
				return true
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return false
}

// parseNWR parses a "N/W/R" quorum triple ("3/2/2"). Values are validated
// and clamped against the actual node count by replica.WithDefaults.
func parseNWR(s string) (replica.Config, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return replica.Config{}, fmt.Errorf("want N/W/R, got %q", s)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return replica.Config{}, fmt.Errorf("bad quorum %q in %q", p, s)
		}
		vals[i] = v
	}
	return replica.Config{N: vals[0], W: vals[1], R: vals[2]}, nil
}

// currentHolder finds who holds the coin now.
func currentHolder(peers []*core.Peer, id coin.ID) *core.Peer {
	for _, p := range peers {
		for _, held := range p.HeldCoins() {
			if held == id {
				return p
			}
		}
	}
	return peers[1]
}

func opsString(ops core.OpCounts) string {
	out := ""
	for op := core.Op(0); op < core.NumOps; op++ {
		if n := ops.Get(op); n > 0 {
			out += fmt.Sprintf("%s=%d ", op, n)
		}
	}
	if out == "" {
		return "(none)"
	}
	return out
}
