package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/core"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "churn-hotlist",
		Title: "C&C hotlist staleness under diurnal churn (Section IV-C dynamics)",
		Reads: AxisN | AxisK | AxisChurn,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultChurnHotlistConfig(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Bots = p.N
			}
			if p.K > 0 {
				cfg.HotlistSize = p.K
			}
			if p.Churn != nil {
				cfg.Spec = *p.Churn
			}
			r, err := RunChurnHotlist(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// ChurnHotlistConfig parameterizes the protocol-level churn
// experiment: a real BotNet (simulated Tor, rally, peering, rotation)
// under a diurnal join/leave process, measuring how stale the
// botmaster's hotlist answers grow as registered bots die off — the
// availability question the webcache bootstrap (Section IV-C) hinges
// on under realistic membership dynamics.
type ChurnHotlistConfig struct {
	// Relays sizes the simulated Tor substrate; Bots the initial
	// population.
	Relays, Bots int
	// HotlistSize is the number of addresses a rally answer carries.
	HotlistSize int
	// Duration is the simulated span; SampleEvery the measurement
	// cadence.
	Duration    time.Duration
	SampleEvery time.Duration
	// PingInterval and NoNInterval tune bot maintenance (longer than
	// the bot defaults: the experiment spans virtual days).
	PingInterval, NoNInterval time.Duration
	// Spec is the churn scenario (the swept axis).
	Spec churn.Spec
	// Seed drives all randomness.
	Seed uint64
}

// DefaultChurnHotlistConfig returns the full or quick preset. The
// default scenario is a diurnal join/leave cycle (amplitude 0.8 over a
// 24h period); address rotation is always on so hotlist answers must
// track the key schedule across period rollovers.
func DefaultChurnHotlistConfig(quick bool) ChurnHotlistConfig {
	spec := churn.Spec{Process: "diurnal", Join: 1.5, Leave: 1.5, Amplitude: 0.8, PeriodH: 24}
	if quick {
		return ChurnHotlistConfig{
			Relays: 30, Bots: 10, HotlistSize: 5,
			Duration: 24 * time.Hour, SampleEvery: 2 * time.Hour,
			PingInterval: 10 * time.Minute, NoNInterval: 30 * time.Minute,
			Spec: spec, Seed: 6,
		}
	}
	return ChurnHotlistConfig{
		Relays: 60, Bots: 40, HotlistSize: 10,
		Duration: 48 * time.Hour, SampleEvery: time.Hour,
		PingInterval: 5 * time.Minute, NoNInterval: 15 * time.Minute,
		Spec: spec, Seed: 6,
	}
}

// RunChurnHotlist bootstraps a botnet, attaches the configured churn
// process at the protocol level (joins are real infections that rally
// and register; leaves are takedowns), and samples over virtual time:
//
//   - staleness: fraction of registered C&C records whose bot is dead —
//     the expected dead-address fraction of a hotlist answer, since the
//     registry never forgets (the paper's legally-constrained defenders
//     cannot forge registrations, and the master has no liveness oracle).
//   - alive: the living population.
//   - registered: total registry size (monotone under churn).
//
// A single-point "peak-staleness" series carries max staleness for
// sweep aggregation and threshold extraction.
func RunChurnHotlist(cfg ChurnHotlistConfig) (*Result, error) {
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: cfg.PingInterval,
		NoNInterval:  cfg.NoNInterval,
		Rotation:     true,
	})
	if err != nil {
		return nil, err
	}
	bn.Master.HotlistSize = cfg.HotlistSize
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, err
	}

	target := churn.NewBotNetTarget(bn, nil, cfg.Spec.Regions)
	eng := churn.NewEngine(bn.Sched, sim.SubstreamSeed(cfg.Seed, "churn-hotlist/engine"), target)
	proc, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	if err := eng.Attach(proc); err != nil {
		return nil, err
	}

	res := &Result{
		ID: "churn-hotlist",
		Title: fmt.Sprintf("Hotlist staleness under churn %s, %d bots, hotlist %d, over %s",
			cfg.Spec.Label(), cfg.Bots, cfg.HotlistSize, cfg.Duration),
		XLabel: "hours", YLabel: "fraction / count",
	}
	staleness := Series{Name: "staleness"}
	alive := Series{Name: "alive"}
	registered := Series{Name: "registered"}

	peak := 0.0
	start := bn.Sched.Elapsed() // Grow consumed virtual time already
	sample := func() {
		h := (bn.Sched.Elapsed() - start).Hours()
		s := bn.HotlistStaleness()
		if s > peak {
			peak = s
		}
		staleness.Points = append(staleness.Points, Point{X: h, Y: s})
		alive.Points = append(alive.Points, Point{X: h, Y: float64(bn.AliveCount())})
		registered.Points = append(registered.Points, Point{X: h, Y: float64(bn.Master.NumRegistered())})
	}

	sample()
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		bn.Sched.RunUntil(sim.Epoch.Add(start + t))
		sample()
	}
	eng.Stop()

	joined, left, takendown := eng.Counts()
	res.Series = append(res.Series, staleness, alive, registered,
		Series{Name: "peak-staleness", Points: []Point{{X: 0, Y: peak}}})
	res.AddNote("churn %s: %d joined, %d left, %d taken down; %d alive of %d ever registered",
		cfg.Spec.Label(), joined, left, takendown, bn.AliveCount(), bn.Master.NumRegistered())
	res.AddNote("staleness: final %.3f, peak %.3f (registry has no liveness oracle; hotlist answers decay with churn)",
		staleness.Points[len(staleness.Points)-1].Y, peak)
	return res, nil
}
