package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"whopay/internal/bus"
	"whopay/internal/bus/tcpbus"
	"whopay/internal/coin"
	"whopay/internal/core"
	"whopay/internal/dht"
	"whopay/internal/dht/replica"
	"whopay/internal/sig"
	"whopay/internal/store"
	"whopay/internal/wal"
	"whopay/internal/wire"
)

// Layer probes time each layer's public functions on their own, on
// realistic inputs, with fixed iteration counts: the median of probeRounds
// rounds is reported. They give the unit costs the traced run's per-op
// totals are made of, and they reproduce the headline micro-benchmark
// numbers that used to live in results/*_bench.txt.

const probeRounds = 5

// probe is one isolated measurement. prepare builds the fixture (under dir
// when it needs files) and returns the function that measures one round,
// in the metric's unit.
type probe struct {
	metricDef
	prepare func(dir string) (measure func() (float64, error), cleanup func(), err error)
}

// timeOps times iters calls of op and returns the mean in units of unit.
func timeOps(iters int, unit time.Duration, op func() error) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / float64(iters) / float64(unit), nil
	}
}

func noCleanup() {}

// runProbes runs every probe and returns its median, in declaration order.
func runProbes(outDir string) ([]metric, error) {
	dir, err := os.MkdirTemp(outDir, "probes-")
	if err != nil {
		return nil, fmt.Errorf("bench: probe dir: %w", err)
	}
	defer os.RemoveAll(dir)
	msg, err := captureTransferRequest()
	if err != nil {
		return nil, fmt.Errorf("bench: capturing a transfer request: %w", err)
	}
	var out []metric
	for _, p := range probes(msg) {
		measure, cleanup, err := p.prepare(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: probe %s: %w", p.Name, err)
		}
		var rounds []float64
		for i := 0; i < probeRounds; i++ {
			v, err := measure()
			if err != nil {
				cleanup()
				return nil, fmt.Errorf("bench: probe %s: %w", p.Name, err)
			}
			rounds = append(rounds, v)
		}
		cleanup()
		out = append(out, metric{Name: p.Name, Unit: p.Unit, Better: p.Better, Value: median(rounds)})
	}
	return out, nil
}

// protoFixture is the smallest world a transfer needs: a broker, a coin
// owner and two peers the coin ping-pongs between.
type protoFixture struct {
	broker      *core.Broker
	owner, x, y *core.Peer
}

func (f *protoFixture) close() {
	for _, p := range []*core.Peer{f.owner, f.x, f.y} {
		if p != nil {
			_ = p.Close()
		}
	}
	if f.broker != nil {
		_ = f.broker.Close()
	}
}

func newProtoFixture(network bus.Network, scheme sig.Scheme) (*protoFixture, error) {
	core.RegisterWireTypes()
	dir := core.NewDirectory()
	judge, err := core.NewJudge(scheme)
	if err != nil {
		return nil, err
	}
	f := &protoFixture{}
	f.broker, err = core.NewBroker(core.BrokerConfig{
		Network: network, Addr: "broker", Scheme: scheme, Directory: dir, GroupPub: judge.GroupPublicKey(),
	})
	if err != nil {
		return nil, err
	}
	for _, slot := range []struct {
		id string
		p  **core.Peer
	}{{"owner", &f.owner}, {"x", &f.x}, {"y", &f.y}} {
		*slot.p, err = core.NewPeer(core.PeerConfig{
			ID: slot.id, Network: network, Addr: bus.Address("peer:" + slot.id), Scheme: scheme,
			Directory: dir, BrokerAddr: f.broker.Addr(), BrokerPub: f.broker.PublicKey(), Judge: judge,
		})
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// mint buys a coin and issues it to holder.
func (f *protoFixture) mint(holder *core.Peer) (coin.ID, error) {
	id, err := f.owner.Purchase(1, false)
	if err != nil {
		return "", err
	}
	return id, f.owner.IssueTo(holder.Addr(), id)
}

// tapNet hands every request a handler serves to see before serving it.
type tapNet struct {
	bus.Network
	see func(msg any)
}

func (n tapNet) Listen(addr bus.Address, h bus.Handler) (bus.Endpoint, error) {
	return n.Network.Listen(addr, func(from bus.Address, msg any) (any, error) {
		n.see(msg)
		return h(from, msg)
	})
}

// captureTransferRequest runs one real owner-serviced ECDSA transfer on the
// memory bus and returns the core.TransferRequest it sent: body, holder
// signature, group signature and presented binding, all genuine.
func captureTransferRequest() (core.TransferRequest, error) {
	var mu sync.Mutex
	var got *core.TransferRequest
	f, err := newProtoFixture(tapNet{Network: bus.NewMemory(), see: func(msg any) {
		if m, ok := msg.(core.TransferRequest); ok {
			mu.Lock()
			got = &m
			mu.Unlock()
		}
	}}, sig.ECDSA{})
	if err != nil {
		return core.TransferRequest{}, err
	}
	defer f.close()
	id, err := f.mint(f.x)
	if err != nil {
		return core.TransferRequest{}, err
	}
	if err := f.x.TransferTo(f.y.Addr(), id); err != nil {
		return core.TransferRequest{}, err
	}
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		return core.TransferRequest{}, errors.New("no TransferRequest crossed the bus")
	}
	return *got, nil
}

// walJournal is the smallest store.Journal over a wal.Log: one record per
// mutation, table, key and value length-prefixed by the wire helpers.
type walJournal struct{ log *wal.Log }

func (j walJournal) LogSet(table string, key, val []byte) error {
	rec := wire.AppendBytes(wire.AppendBytes(wire.AppendString(nil, table), key), val)
	return j.log.Append(rec)
}

func (j walJournal) LogDelete(table string, key []byte) error {
	return j.log.Append(wire.AppendBytes(wire.AppendString(nil, table), key))
}

// probeRecord stands in for a broker table row: a few identifiers and two
// signature-sized byte strings, gob-encoded per write like the real ones.
type probeRecord struct {
	Owner  string
	Seq    uint64
	Key    []byte
	Sig    []byte
	Frozen bool
}

// dhtFixture is a 3-node ring at N/W/R 3/2/2 on the memory bus under the
// null scheme (DHT logic alone), with one client and one hot record.
type dhtFixture struct {
	cluster *dht.Cluster
	client  *dht.Client
	suite   sig.Suite
	kp      sig.KeyPair
	rec     dht.Record
	version uint64
}

func newDHTFixture(leaseTTL time.Duration) (*dhtFixture, error) {
	net := bus.NewMemory()
	f := &dhtFixture{suite: sig.Suite{Scheme: sig.NewNull(0xbe)}, version: 1}
	cfg := replica.Config{N: 3, W: 2, R: 2, SweepInterval: replica.SweepDisabled, LeaseTTL: leaseTTL}
	var err error
	f.cluster, err = dht.NewClusterWithConfig(dht.ClusterConfig{
		Network: net, Scheme: f.suite.Scheme, Nodes: 3, Replication: &cfg,
	})
	if err != nil {
		return nil, err
	}
	ep, err := net.Listen("client", func(bus.Address, any) (any, error) { return dht.Ack{}, nil })
	if err != nil {
		f.cluster.Close()
		return nil, err
	}
	if f.client, err = dht.NewClient(ep, f.cluster.Addrs(), dht.OneHop); err != nil {
		f.cluster.Close()
		return nil, err
	}
	f.client.WithReplication(cfg)
	if f.kp, err = f.suite.GenerateKey(); err != nil {
		f.cluster.Close()
		return nil, err
	}
	if err := f.put(); err != nil {
		f.cluster.Close()
		return nil, err
	}
	return f, nil
}

// put writes the next version of the hot record.
func (f *dhtFixture) put() error {
	rec, err := dht.SignRecord(f.suite, f.kp, dht.KeyFor(f.kp.Public), f.version, []byte("binding"))
	if err != nil {
		return err
	}
	f.version++
	f.rec = rec
	return f.client.Put(rec)
}

func (f *dhtFixture) get() error {
	_, found, err := f.client.Get(f.rec.Key)
	if err == nil && !found {
		err = errors.New("hot record not found")
	}
	return err
}

// probes lists every probe. msg is a genuine transfer request (see
// captureTransferRequest), the message every transfer hop sends.
func probes(msg core.TransferRequest) []probe {
	payload := bytes.Repeat([]byte{0xa5}, 256)

	sigProbe := func(name, unit string, per time.Duration, iters int, op func(sig.KeyPair, []byte) func() error) probe {
		return probe{metricDef{name, unit, "lower"}, func(string) (func() (float64, error), func(), error) {
			kp, err := sig.ECDSA{}.GenerateKey()
			if err != nil {
				return nil, nil, err
			}
			sigBytes, err := sig.ECDSA{}.Sign(kp.Private, payload)
			if err != nil {
				return nil, nil, err
			}
			return timeOps(iters, per, op(kp, sigBytes)), noCleanup, nil
		}}
	}
	walProbe := func(name string, policy wal.Policy, iters int) probe {
		return probe{metricDef{name, "us", "lower"}, func(dir string) (func() (float64, error), func(), error) {
			log, err := wal.Open(wal.Config{Dir: filepath.Join(dir, name), Policy: policy})
			if err != nil {
				return nil, nil, err
			}
			return timeOps(iters, time.Microsecond, func() error { return log.Append(payload) }),
				func() { _ = log.Close() }, nil
		}}
	}
	dhtProbe := func(name, unit string, per time.Duration, iters int, lease time.Duration, op func(*dhtFixture) error) probe {
		return probe{metricDef{name, unit, "lower"}, func(string) (func() (float64, error), func(), error) {
			f, err := newDHTFixture(lease)
			if err != nil {
				return nil, nil, err
			}
			return timeOps(iters, per, func() error { return op(f) }), f.cluster.Close, nil
		}}
	}
	entry, _ := wire.ByValue(msg)

	return []probe{
		sigProbe("sig.sign_us", "us", time.Microsecond, 400, func(kp sig.KeyPair, _ []byte) func() error {
			return func() error { _, err := sig.ECDSA{}.Sign(kp.Private, payload); return err }
		}),
		sigProbe("sig.verify_cold_us", "us", time.Microsecond, 300, func(kp sig.KeyPair, s []byte) func() error {
			return func() error { return sig.ECDSA{}.Verify(kp.Public, payload, s) }
		}),
		sigProbe("sig.verify_warm_ns", "ns", time.Nanosecond, 20000, func(kp sig.KeyPair, s []byte) func() error {
			cached := sig.NewCached(sig.ECDSA{}, sig.CacheOptions{})
			return func() error { return cached.Verify(kp.Public, payload, s) }
		}),
		{metricDef{"wire.encode_ns", "ns", "lower"}, func(string) (func() (float64, error), func(), error) {
			if entry == nil {
				return nil, nil, errors.New("no wire codec for core.TransferRequest")
			}
			return timeOps(50000, time.Nanosecond, func() error {
				buf, err := entry.Enc(wire.GetBuf(), msg)
				wire.PutBuf(buf)
				return err
			}), noCleanup, nil
		}},
		{metricDef{"wire.decode_ns", "ns", "lower"}, func(string) (func() (float64, error), func(), error) {
			enc, err := entry.Enc(nil, msg)
			if err != nil {
				return nil, nil, err
			}
			return timeOps(50000, time.Nanosecond, func() error {
				_, err := wire.Decode(entry.Tag, enc)
				return err
			}), noCleanup, nil
		}},
		{metricDef{"wire.allocs_per_frame", "count", "lower"}, func(string) (func() (float64, error), func(), error) {
			// One request frame built, read back and decoded: the heap
			// allocations a message costs on its way through the codec.
			const iters = 20000
			var rd bytes.Reader
			var scratch []byte
			return func() (float64, error) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < iters; i++ {
					f := wire.Frame{Kind: wire.KindRequest, ReqID: uint64(i), Tag: entry.Tag, From: "127.0.0.1:40000"}
					buf, err := wire.AppendFrame(wire.GetBuf(), &f, func(b []byte) ([]byte, error) { return entry.Enc(b, msg) })
					if err != nil {
						return 0, err
					}
					rd.Reset(buf)
					var body []byte
					if body, scratch, err = wire.ReadFrame(&rd, scratch, nil); err != nil {
						return 0, err
					}
					parsed, err := wire.ParseFrame(body)
					if err != nil {
						return 0, err
					}
					if _, err := wire.Decode(parsed.Tag, parsed.Payload); err != nil {
						return 0, err
					}
					wire.PutBuf(buf)
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / iters, nil
			}, noCleanup, nil
		}},
		{metricDef{"tcpbus.echo_rtt_us", "us", "lower"}, func(string) (func() (float64, error), func(), error) {
			network := tcpbus.New()
			echo := func(_ bus.Address, m any) (any, error) { return m, nil }
			srv, err := network.Listen("127.0.0.1:0", echo)
			if err != nil {
				return nil, nil, err
			}
			cli, err := network.Listen("127.0.0.1:0", echo)
			if err != nil {
				_ = srv.Close()
				return nil, nil, err
			}
			cleanup := func() { _ = cli.Close(); _ = srv.Close() }
			call := func() error { _, err := cli.Call(srv.Addr(), msg); return err }
			if err := call(); err != nil { // dial outside the clock
				cleanup()
				return nil, nil, err
			}
			return timeOps(4000, time.Microsecond, call), cleanup, nil
		}},
		{metricDef{"store.compute_ns", "ns", "lower"}, func(string) (func() (float64, error), func(), error) {
			s := store.NewSharded[string, int64](store.DefaultShards, store.StringHash[string])
			s.Set("k", 0)
			return timeOps(200000, time.Nanosecond, func() error {
				s.Compute("k", func(cur int64, _ bool) (int64, store.Op) { return cur + 1, store.OpSet })
				return nil
			}), noCleanup, nil
		}},
		{metricDef{"store.durable_set_us", "us", "lower"}, func(dir string) (func() (float64, error), func(), error) {
			log, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "durable"), Policy: wal.FsyncNever})
			if err != nil {
				return nil, nil, err
			}
			d := store.NewDurable(store.NewSharded[string, probeRecord](store.DefaultShards, store.StringHash[string]),
				"probe", walJournal{log}, store.StringCodec[string](), store.GobCodec[probeRecord]())
			rec := probeRecord{Owner: "actor-0001", Key: payload[:65], Sig: payload[:72]}
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = fmt.Sprintf("coin-%04d", i)
			}
			i := 0
			return timeOps(5000, time.Microsecond, func() error {
					rec.Seq++
					d.Set(keys[i%len(keys)], rec)
					i++
					return d.Err()
				}),
				func() { _ = log.Close() }, nil
		}},
		walProbe("wal.append_never_us", wal.FsyncNever, 5000),
		walProbe("wal.append_always_us", wal.FsyncAlways, 200),
		dhtProbe("dht.quorum_put_us", "us", time.Microsecond, 3000, 0, (*dhtFixture).put),
		dhtProbe("dht.quorum_get_us", "us", time.Microsecond, 5000, 0, func(f *dhtFixture) error {
			f.client.InvalidateLease(f.rec.Key) // force the quorum read
			return f.get()
		}),
		dhtProbe("dht.lease_hit_ns", "ns", time.Nanosecond, 200000, time.Minute, (*dhtFixture).get),
		{metricDef{"core.hop_mem_null_us", "us", "lower"}, func(string) (func() (float64, error), func(), error) {
			// One owner-serviced transfer on the memory bus under the null
			// scheme: protocol logic alone. A coin's record grows with
			// every re-binding, so a fresh coin is minted every 64 hops,
			// off the clock, as whopay-bench -protocol does.
			f, err := newProtoFixture(bus.NewMemory(), sig.NewNull(0xbf))
			if err != nil {
				return nil, nil, err
			}
			const hops, perCoin = 3200, 64
			return func() (float64, error) {
				var total time.Duration
				from, to := f.x, f.y
				for done := 0; done < hops; done += perCoin {
					id, err := f.mint(from)
					if err != nil {
						return 0, err
					}
					start := time.Now()
					for i := 0; i < perCoin; i++ {
						if err := from.TransferTo(to.Addr(), id); err != nil {
							return 0, err
						}
						from, to = to, from
					}
					total += time.Since(start)
					if err := from.Deposit(id, "payout:probe"); err != nil {
						return 0, err
					}
				}
				return float64(total) / hops / float64(time.Microsecond), nil
			}, f.close, nil
		}},
	}
}
