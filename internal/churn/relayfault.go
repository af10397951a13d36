package churn

import (
	"cmp"
	"fmt"
	"time"

	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// RelayTarget adapts a simulated Tor network to the engine for the
// relay fault processes. Its population is the live relay count. Leave
// crashes one uniformly random live relay without the HSDir flag
// (directory loss is HSDirOutage's axis). Join reports false: a
// crashed relay returns only through RelayCrash's own restart schedule.
type RelayTarget struct{ net *tor.Network }

// NewRelayTarget wraps net, whose live relays form the population.
func NewRelayTarget(net *tor.Network) *RelayTarget { return &RelayTarget{net: net} }

// Size implements Target: the live relay count.
func (t *RelayTarget) Size() int { return t.net.NumRelays() }

// Join implements Target; relays never join on the engine's behalf.
func (t *RelayTarget) Join(*sim.RNG) bool { return false }

// Leave implements Target: it crashes a uniformly random live relay
// without the HSDir flag in the current consensus (the stale directory
// view a real adversary or failure domain would act on), reporting
// false when no candidate turns up within the attempt bound.
func (t *RelayTarget) Leave(rng *sim.RNG) bool {
	c := t.net.Consensus()
	if c == nil {
		return false
	}
	for attempts := 0; attempts < 8*len(c.Relays); attempts++ {
		ri := c.Relays[rng.Intn(len(c.Relays))]
		if ri.HSDir || t.net.Relay(ri.FP) == nil {
			continue // a directory, or died since publication
		}
		t.net.RemoveRelay(ri.FP)
		return true
	}
	return false
}

// faultProcess marks the relay fault processes. Their substreams live
// under "faults/"+name and their errors read "faults:", the namespace
// the fault plane's specs, sweep labels and recorded results are keyed
// to.
type faultProcess interface{ relayFault() }

func (*RelayCrash) relayFault()  {}
func (*HSDirOutage) relayFault() {}

// checkRelayTarget rejects a target a fault process cannot drive. A nil
// target passes: FaultSpec validates its processes without a network.
func checkRelayTarget(name string, t Target) error {
	if _, ok := t.(*RelayTarget); !ok && t != nil {
		return fmt.Errorf("faults: %s: target %T is not a relay network", name, t)
	}
	return nil
}

// RelayCrash is a memoryless crash process over non-HSDir relays:
// crashes arrive at Rate (events per virtual hour) with exponential
// inter-arrival times, each killing one uniformly random live relay
// that does not hold the HSDir flag in the current consensus (directory
// loss is HSDirOutage's axis). Every circuit through the victim dies,
// which is what actually stresses the overlay. With MeanRestart set,
// each crashed relay is replaced after an exponentially distributed
// delay by a fresh relay whose identity derives from this process's
// substream — the replacement starts at zero uptime, so it stays out of
// the HSDir ring for Config.HSDirUptime, as a real rebooted relay would.
type RelayCrash struct {
	// Rate is the mean crash rate in events per virtual hour. Required
	// positive.
	Rate float64
	// MeanRestart is the mean crash-to-restart delay; zero means crashed
	// relays never return.
	MeanRestart time.Duration
	// Label overrides the process name ("relay-crash" by default).
	Label string
}

// Name implements Process.
func (p *RelayCrash) Name() string { return cmp.Or(p.Label, "relay-crash") }

func (p *RelayCrash) validate(t Target) error {
	if err := checkRelayTarget(p.Name(), t); err != nil {
		return err
	}
	if p.Rate <= 0 {
		return fmt.Errorf("faults: %s: rate %g not positive", p.Name(), p.Rate)
	}
	if p.Rate > MaxRate {
		return fmt.Errorf("faults: %s: rate %g exceeds the %g cap", p.Name(), p.Rate, float64(MaxRate))
	}
	if p.MeanRestart < 0 {
		return fmt.Errorf("faults: %s: negative restart delay", p.Name())
	}
	return nil
}

func (p *RelayCrash) attach(e *Engine, rng *sim.RNG) {
	name := p.Name()
	net := e.target.(*RelayTarget).net
	// Crashing below this floor would leave too few relays to build any
	// path (guard + middles + terminal); the process skips events there
	// rather than wedging the whole network.
	floor := net.Config().PathLen + 3
	var step func()
	schedule := func() {
		d := time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Hour))
		e.sched.After(d, step)
	}
	step = func() {
		if e.stopped {
			return
		}
		defer schedule()
		if e.target.Size() <= floor || !e.target.Leave(rng) {
			return
		}
		e.record(name, KindCrash, 1)
		if p.MeanRestart <= 0 {
			return
		}
		// Draw the restart delay and replacement identity now, at crash
		// time, so the substream is consumed in strict crash order.
		delay := time.Duration(rng.ExpFloat64() * float64(p.MeanRestart))
		var seed [32]byte
		rng.Fill(seed[:])
		e.sched.After(delay, func() {
			if e.stopped {
				return
			}
			if _, err := net.AddRelayWithSeed(seed); err == nil {
				e.record(name, KindRestart, 1)
			}
		})
	}
	schedule()
}

// HSDirOutage removes a contiguous segment of the HSDir ring at one
// scheduled instant — the correlated loss a datacenter failure, AS
// outage, or coordinated seizure produces, and the worst case for
// descriptor availability because responsible-directory sets are
// consecutive ring arcs. With Service set, the wave is centered on that
// service's responsible directories (every replica) before extending
// along the ring: the mitigation-literature scenario of defenders
// seizing exactly the directories hosting a C&C descriptor.
type HSDirOutage struct {
	// After is how long after Attach the wave fires.
	After time.Duration
	// Frac is the fraction of the current HSDir ring removed, in (0, 1].
	Frac float64
	// Service, when non-empty, is an onion address whose responsible
	// directories the wave removes first (all replicas), before the
	// contiguous extension. The targeted arcs count toward Frac but are
	// never truncated by it.
	Service string
	// Label overrides the process name ("hsdir-outage" by default).
	Label string
}

// Name implements Process.
func (o *HSDirOutage) Name() string { return cmp.Or(o.Label, "hsdir-outage") }

func (o *HSDirOutage) validate(t Target) error {
	if err := checkRelayTarget(o.Name(), t); err != nil {
		return err
	}
	if o.After < 0 {
		return fmt.Errorf("faults: %s: negative delay", o.Name())
	}
	if o.Frac <= 0 || o.Frac > 1 {
		return fmt.Errorf("faults: %s: fraction %g outside (0, 1]", o.Name(), o.Frac)
	}
	if o.Service != "" {
		if _, err := tor.ParseOnion(o.Service); err != nil {
			return fmt.Errorf("faults: %s: bad service: %w", o.Name(), err)
		}
	}
	return nil
}

func (o *HSDirOutage) attach(e *Engine, rng *sim.RNG) {
	name := o.Name()
	net := e.target.(*RelayTarget).net
	e.sched.After(o.After, func() {
		if e.stopped {
			return
		}
		c := net.Consensus()
		if c == nil {
			return
		}
		ring := c.HSDirs()
		if len(ring) == 0 {
			return
		}
		count := min(max(int(o.Frac*float64(len(ring))+0.5), 1), len(ring))
		victims := make(map[tor.Fingerprint]struct{}, count)
		order := make([]tor.Fingerprint, 0, count)
		add := func(fp tor.Fingerprint) {
			if _, dup := victims[fp]; !dup {
				victims[fp] = struct{}{}
				order = append(order, fp)
			}
		}
		if o.Service != "" {
			if sid, err := tor.ParseOnion(o.Service); err == nil {
				now := net.Now()
				for r := 0; r < tor.NumReplicas; r++ {
					for _, fp := range c.ResponsibleHSDirs(tor.ComputeDescriptorID(sid, nil, r, now)) {
						add(fp)
					}
				}
			}
		}
		// Extend with a contiguous arc from a random ring position. The
		// single Intn draw happens whether or not the targeted arcs
		// already satisfied Frac, so targeting never shifts the stream.
		start := rng.Intn(len(ring))
		for i := 0; len(order) < count && i < len(ring); i++ {
			add(ring[(start+i)%len(ring)])
		}
		removed := 0
		for _, fp := range order {
			if net.Relay(fp) == nil {
				continue // already dead (another process got it first)
			}
			net.RemoveRelay(fp)
			removed++
		}
		if removed > 0 {
			e.record(name, KindOutage, removed)
		}
	})
}
