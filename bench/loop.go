package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// verb is one entry of a workload's traffic mix, already bound to its world.
type verb struct {
	Name   string
	Weight int
	Do     func(rng *rand.Rand) error
}

// outcome is how one verb call ended, as the workload classifies it.
type outcome int

const (
	outOK       outcome = iota
	outSkipped          // the generator found no eligible state (load.ErrSkip)
	outRejected         // a protocol rejection the workload declares expected
	outFailed           // anything else: timeout, transport, unexpected code
	numOutcomes
)

// loopConfig shapes one closed loop: Clients goroutines, each issuing its
// next verb only after the previous one returned.
type loopConfig struct {
	Clients  int
	Seed     int64
	Verbs    []verb
	Classify func(error) outcome
	// OnVerb, when set, brackets every verb call (the traced run uses it to
	// open and close the verb's root span). It receives the client index
	// and the verb's index in Verbs and returns the function to call when
	// the verb has returned.
	OnVerb func(client, verbIdx int) (done func())
}

// sample is one successful verb call.
type sample struct {
	verb int
	lat  time.Duration
	end  time.Duration // when it returned, since the phase started
}

// client is one closed-loop caller. It owns two rngs derived from the seed
// and its index: mix draws the verb sequence and nothing else, so the same
// seed gives the same verb sequence per client however the verbs
// themselves consume randomness; ops is handed to the verbs.
type client struct {
	idx int
	mix *rand.Rand
	ops *rand.Rand

	// per-phase results, reset by runPhase
	outcomes [numOutcomes]int64
	samples  []sample
	seq      []int // verb indices in issue order (kept only when asked)
	last     time.Time
}

// loop is a set of clients that persists across phases, so the measured
// phase continues the warm-up's random streams instead of replaying them.
type loop struct {
	cfg     loopConfig
	total   int
	clients []*client
	keepSeq bool
}

// clientSeedMix spreads (seed, client, stream) into independent rng seeds
// (splitmix-style odd constant, as load.Run does for intents).
const clientSeedMix uint64 = 0x9E3779B97F4A7C15

func newLoop(cfg loopConfig) *loop {
	l := &loop{cfg: cfg}
	for _, v := range cfg.Verbs {
		l.total += v.Weight
	}
	for i := 0; i < cfg.Clients; i++ {
		base := uint64(cfg.Seed) + uint64(2*i+1)*clientSeedMix
		l.clients = append(l.clients, &client{
			idx: i,
			mix: rand.New(rand.NewSource(int64(base))),
			ops: rand.New(rand.NewSource(int64(base + clientSeedMix))),
		})
	}
	return l
}

// pick draws one verb index from the weighted mix.
func (l *loop) pick(rng *rand.Rand) int {
	r := rng.Intn(l.total)
	for i, v := range l.cfg.Verbs {
		if r < v.Weight {
			return i
		}
		r -= v.Weight
	}
	return len(l.cfg.Verbs) - 1
}

// phaseResult is what one phase of the loop observed.
type phaseResult struct {
	Start    time.Time
	Elapsed  time.Duration // phase start to the last verb's return
	Outcomes [numOutcomes]int64
	Samples  []sample // successful verbs, all clients
}

func (r *phaseResult) attempted() int64 {
	var n int64
	for _, c := range r.Outcomes {
		n += c
	}
	return n
}

// runPhase runs every client until d has passed (no verb is issued after
// the deadline; one in flight is allowed to finish) or, when maxOps > 0,
// until each client has issued maxOps verbs, whichever comes first.
func (l *loop) runPhase(d time.Duration, maxOps int) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range l.clients {
		c.outcomes = [numOutcomes]int64{}
		c.samples = c.samples[:0]
		c.seq = c.seq[:0]
		c.last = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; maxOps <= 0 || n < maxOps; n++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				vi := l.pick(c.mix)
				if l.keepSeq {
					c.seq = append(c.seq, vi)
				}
				var done func()
				if l.cfg.OnVerb != nil {
					done = l.cfg.OnVerb(c.idx, vi)
				}
				err := l.cfg.Verbs[vi].Do(c.ops)
				c.last = time.Now()
				if done != nil {
					done()
				}
				out := outOK
				if err != nil {
					out = l.cfg.Classify(err)
				}
				c.outcomes[out]++
				if out == outOK {
					c.samples = append(c.samples, sample{verb: vi, lat: c.last.Sub(t0), end: c.last.Sub(start)})
				}
			}
		}(c)
	}
	wg.Wait()

	res := phaseResult{Start: start}
	end := start
	for _, c := range l.clients {
		if c.last.After(end) {
			end = c.last
		}
		for i, n := range c.outcomes {
			res.Outcomes[i] += n
		}
		res.Samples = append(res.Samples, c.samples...)
	}
	res.Elapsed = end.Sub(start)
	return res
}

// latencies returns the sorted latencies of the samples whose verb index
// is verbIdx, or of all samples when verbIdx < 0.
func latencies(samples []sample, verbIdx int) []int64 {
	out := make([]int64, 0, len(samples))
	for _, s := range samples {
		if verbIdx < 0 || s.verb == verbIdx {
			out = append(out, int64(s.lat))
		}
	}
	slices.Sort(out)
	return out
}
