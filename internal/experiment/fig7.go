package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/soap"
)

func init() {
	Register(Definition{
		ID:    "fig7",
		Title: "SOAP containment campaign against basic OnionBots (Fig 7)",
		Reads: AxisN,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultFig7Config(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Bots = p.N
			}
			r, err := RunFig7(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// Fig7Config parameterizes the SOAP campaign experiment at the protocol
// level (full Tor substrate, real crypto).
type Fig7Config struct {
	// Bots is the victim network size.
	Bots int
	// Relays is the simulated Tor network size.
	Relays int
	// Duration is the campaign length (virtual time).
	Duration time.Duration
	// SampleEvery spaces progress samples.
	SampleEvery time.Duration
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFig7Config returns campaign presets.
func DefaultFig7Config(quick bool) Fig7Config {
	if quick {
		return Fig7Config{Bots: 8, Relays: 15, Duration: 4 * time.Hour, SampleEvery: 30 * time.Minute, Seed: 4}
	}
	return Fig7Config{Bots: 24, Relays: 25, Duration: 8 * time.Hour, SampleEvery: 30 * time.Minute, Seed: 4}
}

// RunFig7 regenerates the Figure 7 soaping walkthrough as a campaign:
// clone-neighbor fraction and contained fraction over time, ending with
// the broadcast-reach comparison that demonstrates neutralization.
func RunFig7(cfg Fig7Config) (*Result, error) {
	bn, err := core.NewBotNet(cfg.Seed, cfg.Relays, core.BotConfig{DMin: 2, DMax: 4})
	if err != nil {
		return nil, err
	}
	// Hardcoded-list + hotlist bootstrap, the paper's recommended combo
	// (Section IV-B); without the hotlist, large formations can leave
	// starved stragglers that would muddy the before/after comparison.
	bn.Master.HotlistSize = 3
	if err := bn.Grow(cfg.Bots, nil); err != nil {
		return nil, err
	}
	bn.Run(6 * time.Minute)

	// Baseline reach before the campaign.
	if err := bn.Broadcast("baseline", nil, 1); err != nil {
		return nil, err
	}
	bn.Run(2 * time.Minute)
	baselineReach := bn.ExecutedCount("baseline")

	captured := bn.AliveBots()[0]
	// The hotlist actively fights containment: bots that drop below
	// DMin re-rally and the C&C hands them fresh benign peers. The
	// attacker therefore needs a clone budget comfortably above the
	// default to finish every target (a finding in its own right — the
	// per-bot cost of SOAP rises with bootstrap quality).
	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(),
		soap.Config{MaxClonesPerTarget: 64})
	attacker.Start(captured.Onion())

	res := &Result{
		ID:     "fig7",
		Title:  fmt.Sprintf("SOAP campaign against %d bots (basic OnionBots)", cfg.Bots),
		XLabel: "minutes", YLabel: "fraction",
	}
	surrounded := Series{Name: "clone-neighbor-fraction"}
	contained := Series{Name: "contained-fraction"}
	for elapsed := time.Duration(0); elapsed < cfg.Duration; elapsed += cfg.SampleEvery {
		bn.Run(cfg.SampleEvery)
		x := (elapsed + cfg.SampleEvery).Minutes()
		surrounded.Points = append(surrounded.Points, Point{X: x, Y: soap.CloneNeighborFraction(bn, attacker)})
		contained.Points = append(contained.Points, Point{X: x, Y: soap.ContainmentFraction(bn, attacker)})
	}
	res.Series = append(res.Series, surrounded, contained)

	// Post-campaign reach: the neutralization proof.
	if err := bn.Broadcast("after", nil, 1); err != nil {
		return nil, err
	}
	bn.Run(2 * time.Minute)
	afterReach := bn.ExecutedCount("after")

	benign := soap.BenignOverlay(bn, attacker)
	res.AddNote("broadcast reach before campaign: %d/%d bots", baselineReach, cfg.Bots)
	res.AddNote("broadcast reach after campaign: %d/%d bots", afterReach, cfg.Bots)
	res.AddNote("benign overlay edges remaining: %d", benign.NumEdges())
	res.AddNote("clones created: %d on a single machine (IP/.onion decoupling)",
		attacker.Stats().ClonesCreated)
	final := contained.Points[len(contained.Points)-1].Y
	res.AddNote("final contained fraction: %.2f", final)
	return res, nil
}
