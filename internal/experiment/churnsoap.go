package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/core"
	"onionbots/internal/sim"
	"onionbots/internal/soap"
)

func init() {
	Register(Definition{
		ID:    "churn-soap",
		Title: "SOAP containment vs a churning population (Section VII-A × IV-C dynamics)",
		Reads: AxisN | AxisK | AxisChurn | AxisSoap,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultChurnSoapConfig(p.Quick)
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
			if p.Soap != nil {
				cfg.Soap = *p.Soap
			}
			r, err := RunChurnSoap(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// ChurnSoapConfig composes the two halves the paper evaluates in
// isolation: a SOAP containment campaign (Section VII-A's mitigation)
// running against a population that keeps moving underneath it (PR 4's
// churn engine at the protocol level). The question it answers is the
// one the takedown literature says decides real mitigations: does a
// clone budget that contains a static victim set still contain one
// whose members leave — taking their contained neighborhoods with
// them — while fresh infections rally in behind the attacker's back?
type ChurnSoapConfig struct {
	// Relays sizes the simulated Tor substrate; Bots the initial
	// population the campaign starts against.
	Relays, Bots int
	// HotlistSize is the C&C rally answer size — the defender-hostile
	// force (benign re-peering) the paper's webcache bootstrap supplies.
	HotlistSize int
	// Duration is the campaign span; SampleEvery the measurement
	// cadence.
	Duration    time.Duration
	SampleEvery time.Duration
	// PingInterval and NoNInterval tune bot maintenance.
	PingInterval, NoNInterval time.Duration
	// Spec is the churn scenario running under the campaign.
	Spec churn.Spec
	// Soap is the campaign knob group (clone budget, wave cadence,
	// proof-of-work policy).
	Soap soap.Spec
	// Seed drives all randomness.
	Seed uint64
}

// DefaultChurnSoapConfig returns the full or quick preset: a balanced
// Poisson join/leave process under a hotlist-hardened SOAP campaign
// with the clone budget fig7 needed to finish a *static* population.
func DefaultChurnSoapConfig(quick bool) ChurnSoapConfig {
	spec := churn.Spec{Process: "poisson", Join: 2, Leave: 2}
	campaign := soap.Spec{Clones: 64}
	if quick {
		return ChurnSoapConfig{
			Relays: 25, Bots: 8, HotlistSize: 3,
			Duration: 8 * time.Hour, SampleEvery: time.Hour,
			PingInterval: 10 * time.Minute, NoNInterval: 30 * time.Minute,
			Spec: spec, Soap: campaign, Seed: 9,
		}
	}
	return ChurnSoapConfig{
		Relays: 40, Bots: 24, HotlistSize: 5,
		Duration: 24 * time.Hour, SampleEvery: time.Hour,
		PingInterval: 5 * time.Minute, NoNInterval: 15 * time.Minute,
		Spec: spec, Soap: campaign, Seed: 9,
	}
}

// RunChurnSoap grows a botnet, launches a SOAP campaign from a captured
// bot, attaches the configured churn process at the protocol level
// (joins are real infections that rally, register, and get discovered
// through gossip; leaves are takedowns that may delete already-contained
// bots), and samples over virtual time:
//
//   - contained: ground-truth contained fraction of the *alive*
//     population (soap.ContainmentFraction) — the campaign's grip.
//   - clone-neighbor: mean clone share of alive bots' peer lists.
//   - alive: the moving population.
//   - discovered: how many bots the attacker has found so far.
//
// Single-point summary series carry the final and minimum-after-onset
// contained fractions for sweep aggregation and threshold rows
// ("first churn where mean contained.final < 0.9").
func RunChurnSoap(cfg ChurnSoapConfig) (*Result, error) {
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{
		DMin: 2, DMax: 4,
		PingInterval: cfg.PingInterval,
		NoNInterval:  cfg.NoNInterval,
	})
	if err != nil {
		return nil, err
	}
	bn.Master.HotlistSize = cfg.HotlistSize
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, err
	}
	bn.Run(6 * time.Minute)

	captured := bn.AliveBots()[0]
	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(), cfg.Soap.Config())
	attacker.Start(captured.Onion())

	target := churn.NewBotNetTarget(bn, nil, cfg.Spec.Regions)
	eng := churn.NewEngine(bn.Sched, sim.SubstreamSeed(cfg.Seed, "churn-soap/engine"), target)
	proc, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	if err := eng.Attach(proc); err != nil {
		return nil, err
	}

	res := &Result{
		ID: "churn-soap",
		Title: fmt.Sprintf("SOAP campaign (%s) vs churn %s, %d initial bots, hotlist %d, over %s",
			cfg.Soap.Label(), cfg.Spec.Label(), cfg.Bots, cfg.HotlistSize, cfg.Duration),
		XLabel: "hours", YLabel: "fraction / count",
	}
	contained := Series{Name: "contained"}
	cloneNeighbor := Series{Name: "clone-neighbor"}
	alive := Series{Name: "alive"}
	discovered := Series{Name: "discovered"}

	start := bn.Sched.Elapsed() // formation consumed virtual time already
	final, minAfterOnset := 0.0, 1.0
	onset := false
	sample := func() {
		h := (bn.Sched.Elapsed() - start).Hours()
		c := soap.ContainmentFraction(bn, attacker)
		final = c
		if c > 0 {
			onset = true
		}
		if onset && c < minAfterOnset {
			minAfterOnset = c
		}
		contained.Points = append(contained.Points, Point{X: h, Y: c})
		cloneNeighbor.Points = append(cloneNeighbor.Points, Point{X: h, Y: soap.CloneNeighborFraction(bn, attacker)})
		alive.Points = append(alive.Points, Point{X: h, Y: float64(bn.AliveCount())})
		discovered.Points = append(discovered.Points, Point{X: h, Y: float64(attacker.Stats().BotsDiscovered)})
	}

	sample()
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		bn.Sched.RunUntil(sim.Epoch.Add(start + t))
		sample()
	}
	eng.Stop()
	attacker.Stop()
	if !onset {
		minAfterOnset = 0
	}

	joined, left, takendown := eng.Counts()
	st := attacker.Stats()
	res.Series = append(res.Series, contained, cloneNeighbor, alive, discovered,
		Series{Name: "final-contained", Points: []Point{{X: 0, Y: final}}},
		Series{Name: "min-contained", Points: []Point{{X: 0, Y: minAfterOnset}}})
	res.AddNote("churn %s: %d joined, %d left, %d taken down; %d alive at end",
		cfg.Spec.Label(), joined, left, takendown, bn.AliveCount())
	res.AddNote("campaign %s: %d clones against %d discovered bots; %d blocked messages, %d hashes paid",
		cfg.Soap.Label(), st.ClonesCreated, st.BotsDiscovered, st.MessagesBlocked, st.WorkHashes)
	res.AddNote("containment: final %.3f, min after onset %.3f (churn joins re-open the net the clones closed)",
		final, minAfterOnset)
	return res, nil
}
