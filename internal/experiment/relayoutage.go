package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/core"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

func init() {
	Register(Definition{
		ID:    "relay-outage",
		Title: "NoN quality and C&C reachability under relay crash/restart faults",
		Reads: AxisN | AxisChurn | AxisFaults,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultRelayOutageConfig(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Bots = p.N
			}
			if p.Faults != nil {
				cfg.Spec = *p.Faults
			}
			if p.Churn != nil {
				cfg.Churn = p.Churn
			}
			r, err := RunRelayOutage(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// RelayOutageConfig parameterizes the substrate-failure experiment: a
// Poisson relay crash/restart process (optionally plus intro-point
// faults) grinds against a live botnet, measuring how the Network of
// Neighbors overlay and C&C reachability degrade — and what a dial
// retry budget buys back. With Churn set, membership churn composes
// with the infrastructure faults on the same scheduler, answering
// whether an overlay that survives bot attrition also survives the
// ground shifting under it.
type RelayOutageConfig struct {
	// Relays sizes the simulated Tor substrate; Bots the initial
	// population.
	Relays, Bots int
	// ExtraRelays are young relays added after bootstrap. They carry no
	// HSDir flag for Config.HSDirUptime, which makes them the crash
	// process's victim pool: bootstrapped relays all hold the flag, and
	// RelayCrash spares directories by contract (directory loss is
	// HSDirOutage's axis).
	ExtraRelays int
	// Duration is the simulated span; SampleEvery the measurement (and
	// reachability-probe) cadence.
	Duration    time.Duration
	SampleEvery time.Duration
	// Spec is the fault plane and retry budget (the swept axis).
	Spec churn.FaultSpec
	// Churn optionally composes a membership churn process with the
	// infrastructure faults (nil = static population).
	Churn *churn.Spec
	// Seed drives all randomness.
	Seed uint64
}

// DefaultRelayOutageConfig returns the full or quick preset. The
// default fault plane crashes relays at a few events per virtual hour
// with hour-scale restarts, against a 3-attempt retry budget backing
// off from one virtual minute — transient path failures heal fast, so
// short backoffs pay here, unlike the directory-outage scenario.
func DefaultRelayOutageConfig(quick bool) RelayOutageConfig {
	spec := churn.FaultSpec{CrashRate: 4, RestartH: 1, RetryAttempts: 3, RetryBackoffS: 60}
	if quick {
		return RelayOutageConfig{
			Relays: 30, Bots: 10, ExtraRelays: 15,
			Duration: 12 * time.Hour, SampleEvery: 2 * time.Hour,
			Spec: spec, Seed: 8,
		}
	}
	return RelayOutageConfig{
		Relays: 60, Bots: 30, ExtraRelays: 30,
		Duration: 24 * time.Hour, SampleEvery: time.Hour,
		Spec: spec, Seed: 8,
	}
}

// RunRelayOutage bootstraps a botnet, attaches the configured fault
// plane (and optional churn process), and samples over virtual time:
//
//   - relays: the live relay population as crashes and restarts fight.
//   - alive: the living bot population.
//   - component-frac: largest overlay component over alive bots — the
//     NoN cohesion signal.
//
// At every sample a fresh client probes the C&C under the spec's retry
// policy. Two single-point summary series feed sweep aggregation:
//
//   - reachability: fraction of probes whose dial eventually succeeded.
//   - non-quality: mean component-frac × mean degree-ratio (average
//     overlay degree over DMin, capped at 1) — 1.0 means the overlay
//     stayed cohesive at healthy degree throughout.
func RunRelayOutage(cfg RelayOutageConfig) (*Result, error) {
	rp := cfg.Spec.RetryPolicy()
	botCfg := core.BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: 10 * time.Minute,
		NoNInterval:  30 * time.Minute,
		Retry:        rp,
	}
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, botCfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ExtraRelays; i++ {
		if _, err := bn.Net.AddRelay(); err != nil {
			return nil, err
		}
	}
	if cfg.ExtraRelays > 0 {
		bn.Net.PublishConsensus()
	}
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, err
	}

	eng := churn.NewEngine(bn.Sched, sim.SubstreamSeed(cfg.Seed, "relay-outage/faults"), churn.NewRelayTarget(bn.Net))
	if err := cfg.Spec.Attach(eng, bn.Master.Onion()); err != nil {
		return nil, err
	}
	var churnEng *churn.Engine
	if cfg.Churn != nil {
		target := churn.NewBotNetTarget(bn, nil, cfg.Churn.Regions)
		churnEng = churn.NewEngine(bn.Sched, sim.SubstreamSeed(cfg.Seed, "relay-outage/churn"), target)
		proc, err := cfg.Churn.Build()
		if err != nil {
			return nil, err
		}
		if err := churnEng.Attach(proc); err != nil {
			return nil, err
		}
	}

	res := &Result{
		ID: "relay-outage",
		Title: fmt.Sprintf("NoN under %s, %d relays, %d bots, over %s",
			cfg.Spec.Label(), cfg.Relays, cfg.Bots, cfg.Duration),
		XLabel: "hours", YLabel: "count / fraction",
	}
	relays := Series{Name: "relays"}
	alive := Series{Name: "alive"}
	compFrac := Series{Name: "component-frac"}

	ccOnion := bn.Master.Onion()
	probeOK, probeDone := 0, 0
	probe := func() {
		pr := tor.NewProxy(bn.Net)
		pr.Retry = rp
		pr.DialAsync(ccOnion, func(conn *tor.Conn, err error) {
			probeDone++
			if err == nil {
				probeOK++
				conn.Close()
			}
		})
	}

	fracSum, ratioSum := 0.0, 0.0
	sampled := 0
	start := bn.Sched.Elapsed() // Grow consumed virtual time already
	sample := func() {
		h := (bn.Sched.Elapsed() - start).Hours()
		relays.Points = append(relays.Points, Point{X: h, Y: float64(bn.Net.NumRelays())})
		n := bn.AliveCount()
		alive.Points = append(alive.Points, Point{X: h, Y: float64(n)})
		frac, ratio := 0.0, 0.0
		if n > 0 {
			g := bn.OverlayGraph()
			if sizes := graph.Components(g); len(sizes) > 0 {
				frac = float64(sizes[0]) / float64(n)
			}
			ratio = g.AvgDegree() / float64(botCfg.DMin)
			if ratio > 1 {
				ratio = 1
			}
		}
		compFrac.Points = append(compFrac.Points, Point{X: h, Y: frac})
		fracSum += frac
		ratioSum += ratio
		sampled++
		probe()
	}

	sample()
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		bn.Sched.RunUntil(sim.Epoch.Add(start + t))
		sample()
	}
	// Drain tail: the last probe can wait the policy's full backoff
	// span before its outcome lands.
	bn.Sched.RunFor(rp.Span() + time.Hour)
	eng.Stop()
	if churnEng != nil {
		churnEng.Stop()
	}

	probes := sampled
	reach := float64(probeOK) / float64(probes)
	quality := (fracSum / float64(sampled)) * (ratioSum / float64(sampled))
	res.Series = append(res.Series, relays, alive, compFrac,
		Series{Name: "reachability", Points: []Point{{X: 0, Y: reach}}},
		Series{Name: "non-quality", Points: []Point{{X: 0, Y: quality}}})

	crashed, restarted, outaged := eng.FaultCounts()
	st := bn.Net.Stats()
	res.AddNote("faults %s: %d crashed, %d restarted, %d outaged",
		cfg.Spec.Label(), crashed, restarted, outaged)
	if churnEng != nil {
		joined, left, takendown := churnEng.Counts()
		res.AddNote("churn %s: %d joined, %d left, %d taken down",
			cfg.Churn.Label(), joined, left, takendown)
	}
	res.AddNote("probes: %d/%d reached C&C (%d completed); non-quality %.3f",
		probeOK, probes, probeDone, quality)
	res.AddNote("network: %d dial failures, %d retries, %d recoveries, %d publish repairs",
		st.DialFailures, st.DialRetries, st.DialRecoveries, st.PublishRepairs)
	return res, nil
}
