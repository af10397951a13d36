package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/core"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

func init() {
	Register(Definition{
		ID:    "hsdir-outage",
		Title: "C&C reachability through a correlated HSDir outage (fault plane vs retry budget)",
		Reads: AxisN | AxisFaults,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultHSDirOutageConfig(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Bots = p.N
			}
			if p.Faults != nil {
				cfg.Spec = *p.Faults
			}
			r, err := RunHSDirOutage(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// HSDirOutageConfig parameterizes the directory-seizure experiment: a
// correlated HSDir outage wave hits the directories hosting the C&C
// descriptor, and reachability probes measure how dark the C&C goes —
// and how much of the blackout a client retry budget buys back while
// the consensus and republish machinery heal the descriptor onto
// surviving directories. This is the infrastructure-level mitigation
// scenario the paper's takedown analysis gestures at: defenders seize
// directories, not bots.
type HSDirOutageConfig struct {
	// Relays sizes the simulated Tor substrate; Bots the botnet
	// population rallying against it.
	Relays, Bots int
	// Probes is the number of reachability probes launched inside the
	// outage window, evenly spaced; the same number measures the healed
	// steady state after the drain tail.
	Probes int
	// Window is the probing window opening just after the outage wave.
	// It should end before the consensus/republish cycle heals the
	// descriptor, so the window isolates what retries alone contribute.
	Window time.Duration
	// Duration is the simulated span; SampleEvery the measurement
	// cadence for the directory-population series.
	Duration    time.Duration
	SampleEvery time.Duration
	// Spec is the fault plane and retry budget (the swept axis). The
	// preset is a targeted 30% outage with a 4-attempt retry budget.
	Spec churn.FaultSpec
	// Seed drives all randomness.
	Seed uint64
}

// DefaultHSDirOutageConfig returns the full or quick preset. The
// default fault plane removes 30% of the HSDir ring two virtual hours
// in, centered on the C&C's responsible directories (OutageTargeted),
// against a 4-attempt retry budget backing off from 30 virtual
// minutes — enough to straddle the next consensus and republish cycle.
func DefaultHSDirOutageConfig(quick bool) HSDirOutageConfig {
	spec := churn.FaultSpec{
		OutageFrac: 0.3, OutageAtH: 2, OutageTargeted: true,
		RetryAttempts: 4, RetryBackoffS: 1800,
	}
	if quick {
		return HSDirOutageConfig{
			Relays: 40, Bots: 8, Probes: 6,
			Window: time.Hour, Duration: 8 * time.Hour, SampleEvery: time.Hour,
			Spec: spec, Seed: 7,
		}
	}
	return HSDirOutageConfig{
		Relays: 80, Bots: 20, Probes: 12,
		Window: time.Hour, Duration: 12 * time.Hour, SampleEvery: time.Hour,
		Spec: spec, Seed: 7,
	}
}

// RunHSDirOutage bootstraps a botnet, attaches the configured fault
// plane targeted at the botmaster's rally service, and probes C&C
// reachability from fresh clients launched inside the outage window.
// Each probe dials under the spec's retry policy; without retries a
// probe fails the moment every responsible directory is dead, with
// retries it can outwait the blackout until the consensus drops the
// dead directories and the service republishes to the survivors.
//
// The result carries directory/relay population series over virtual
// hours plus two single-point summary series for sweep aggregation:
//
//   - outage-window-reachability: fraction of window probes whose dial
//     eventually succeeded (the retry budget's purchase).
//   - final-reachability: fraction of single-attempt probes succeeding
//     after the drain tail (the self-healing floor — republish repairs
//     this to 1.0 regardless of client retries).
func RunHSDirOutage(cfg HSDirOutageConfig) (*Result, error) {
	if cfg.Probes < 1 {
		return nil, fmt.Errorf("hsdir-outage: need at least one probe")
	}
	rp := cfg.Spec.RetryPolicy()
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: 10 * time.Minute,
		NoNInterval:  30 * time.Minute,
		Retry:        rp,
	})
	if err != nil {
		return nil, err
	}
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, err
	}

	eng := churn.NewEngine(bn.Sched, sim.SubstreamSeed(cfg.Seed, "hsdir-outage/faults"), churn.NewRelayTarget(bn.Net))
	if err := cfg.Spec.Attach(eng, bn.Master.Onion()); err != nil {
		return nil, err
	}

	res := &Result{
		ID: "hsdir-outage",
		Title: fmt.Sprintf("C&C reachability under %s, %d relays, %d bots, over %s",
			cfg.Spec.Label(), cfg.Relays, cfg.Bots, cfg.Duration),
		XLabel: "hours", YLabel: "count / fraction",
	}
	hsdirs := Series{Name: "hsdirs"}
	relays := Series{Name: "relays"}

	start := bn.Sched.Elapsed() // Grow consumed virtual time already
	sample := func() {
		h := (bn.Sched.Elapsed() - start).Hours()
		live := 0
		if c := bn.Net.Consensus(); c != nil {
			for _, fp := range c.HSDirs() {
				if bn.Net.Relay(fp) != nil {
					live++
				}
			}
		}
		hsdirs.Points = append(hsdirs.Points, Point{X: h, Y: float64(live)})
		relays.Points = append(relays.Points, Point{X: h, Y: float64(bn.Net.NumRelays())})
	}

	// Window probes: fresh clients (no warm descriptor cache) dialing
	// the C&C under the retry policy, launched at even offsets across
	// the window. The first probe runs one virtual minute after the
	// wave instant so it always observes the outage, never a same-tick
	// race with it.
	ccOnion := bn.Master.Onion()
	winOK, winDone := 0, 0
	wave := time.Duration(cfg.Spec.OutageAtH * float64(time.Hour))
	gap := cfg.Window / time.Duration(cfg.Probes)
	for i := 0; i < cfg.Probes; i++ {
		at := wave + time.Minute + time.Duration(i)*gap
		bn.Sched.After(at, func() {
			pr := tor.NewProxy(bn.Net)
			pr.Retry = rp
			pr.DialAsync(ccOnion, func(conn *tor.Conn, err error) {
				winDone++
				if err == nil {
					winOK++
					conn.Close()
				}
			})
		})
	}

	sample()
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		bn.Sched.RunUntil(sim.Epoch.Add(start + t))
		sample()
	}
	// Drain tail: a probe launched at the window's edge can wait the
	// policy's full backoff span past Duration before its outcome lands.
	bn.Sched.RunFor(rp.Span() + time.Hour)

	// Healed steady state: single-attempt probes after the drain. The
	// republish machinery, not client retries, owns this number.
	finalOK := 0
	for i := 0; i < cfg.Probes; i++ {
		pr := tor.NewProxy(bn.Net)
		if conn, err := pr.Dial(ccOnion); err == nil {
			finalOK++
			conn.Close()
		}
	}
	eng.Stop()

	windowReach := float64(winOK) / float64(cfg.Probes)
	finalReach := float64(finalOK) / float64(cfg.Probes)
	res.Series = append(res.Series, hsdirs, relays,
		Series{Name: "outage-window-reachability", Points: []Point{{X: 0, Y: windowReach}}},
		Series{Name: "final-reachability", Points: []Point{{X: 0, Y: finalReach}}})

	crashed, restarted, outaged := eng.FaultCounts()
	st := bn.Net.Stats()
	res.AddNote("faults %s: %d crashed, %d restarted, %d outaged",
		cfg.Spec.Label(), crashed, restarted, outaged)
	res.AddNote("window probes: %d/%d reached C&C (%d completed); final probes %d/%d",
		winOK, cfg.Probes, winDone, finalOK, cfg.Probes)
	res.AddNote("network: %d dial failures, %d retries, %d recoveries, %d publish repairs",
		st.DialFailures, st.DialRetries, st.DialRecoveries, st.PublishRepairs)
	return res, nil
}
