package scenario

import (
	"onionbots/internal/churn"
	"onionbots/internal/experiment"
	"onionbots/internal/soap"
)

// The library: every named question the simulator answers and
// machine-checks. Numeric calibration (interval endpoints, gap sizes,
// tolerances) is against quick-mode presets, which are deterministic
// per (seed, label) — run `onionsim -scenario all -quick` to check
// them all. docs/EXPERIMENTS.md catalogues each entry; docs_test.go
// enforces that catalogue stays complete.
func init() {
	Register(Scenario{
		Name:     "fig5-resilience",
		Question: "Does the DDSR overlay stay connected under node deletion while a plain random graph shatters?",
		Figure:   "Fig 5",
		Sweep: &experiment.Sweep{
			Experiments: []string{"fig5"},
			Seeds:       []uint64{1},
		},
		Expect: []Expectation{
			// The paper's headline: the self-repairing overlay holds one
			// component through essentially total deletion...
			{Kind: "bounded", Result: "fig5-components-*", Series: "DDSR", Stat: "max", Hi: f(1)},
			// ...while the unrepaired graph fragments into many.
			{Kind: "bounded", Result: "fig5-components-*", Series: "Normal", Stat: "max", Lo: f(5)},
		},
	})

	Register(Scenario{
		Name:     "fig6-partition-threshold",
		Question: "Does the first-partition threshold grow with graph size, near the paper's 0.4·n line?",
		Figure:   "Fig 6",
		Sweep: &experiment.Sweep{
			Experiments: []string{"fig6"},
			Ns:          []int{600, 1000, 1400},
			Seeds:       []uint64{1},
			Thresholds: []experiment.Threshold{
				{Series: "Graph", Axis: "n", Above: f(400)},
			},
		},
		Expect: []Expectation{
			{Kind: "monotone", Series: "Graph", Axis: "n", Direction: "increasing"},
			// 400 deletions ≈ 0.4·1000: the crossing must land between the
			// grid points bracketing n=1000, interpolated ("n≈…").
			{Kind: "threshold_in", Series: "Graph", Axis: "n", Above: f(400), Lo: f(600), Hi: f(1000)},
		},
	})

	Register(Scenario{
		Name:     "churn-repair-lambda",
		Question: "At what Poisson leave rate λ does DDSR repair quality collapse below 0.8?",
		Figure:   "Fig 5 under §IV-C dynamics",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-repair"},
			Churn: []churn.Spec{
				{Process: "poisson", Leave: 2},
				{Process: "poisson", Leave: 8},
				{Process: "poisson", Leave: 16},
				{Process: "poisson", Leave: 32},
			},
			Seeds:  []uint64{1},
			Trials: 2,
			Thresholds: []experiment.Threshold{
				{Series: "quality", Axis: "churn", Below: f(0.8)},
			},
		},
		Expect: []Expectation{
			{Kind: "monotone", Series: "quality", Axis: "churn", Direction: "decreasing", Tolerance: 0.02},
			// Repair keeps up through λ=8 and has collapsed by λ=16; the
			// interpolated crossing ("λ≈…") must land between them.
			{Kind: "threshold_in", Series: "quality", Axis: "churn", Below: f(0.8), Lo: f(8), Hi: f(16)},
		},
	})

	Register(Scenario{
		Name:     "churn-hotlist-staleness",
		Question: "Does hotlist staleness rise with churn intensity while the registry only ever grows?",
		Figure:   "§V-B bootstrap under §IV-C dynamics",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-hotlist"},
			Churn: []churn.Spec{
				{Process: "poisson", Join: 1, Leave: 1},
				{Process: "poisson", Join: 4, Leave: 4},
				{Process: "poisson", Join: 12, Leave: 12},
			},
			Seeds:  []uint64{1},
			Trials: 2,
		},
		Expect: []Expectation{
			// Join and leave both vary, so this axis is categorical —
			// monotone walks the listed order.
			{Kind: "monotone", Series: "staleness", Axis: "churn", Direction: "increasing", Tolerance: 0.05},
			{Kind: "bounded", Series: "peak-staleness", Lo: f(0.9)},
			{Kind: "monotone", Series: "registered", Axis: "churn", Direction: "increasing"},
		},
	})

	Register(Scenario{
		Name:     "churn-soap-containment",
		Question: "Does population movement break SOAP containment that holds against a calm population?",
		Figure:   "§VII-A × §IV-C composition",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-soap"},
			Churn: []churn.Spec{
				{Process: "poisson", Join: 0.5, Leave: 0.5},
				{Process: "poisson", Join: 6, Leave: 6},
			},
			Seeds:  []uint64{1},
			Trials: 2,
		},
		Expect: []Expectation{
			// Calm (index 0) beats stormy (index 1) by a wide containment
			// margin: churn is the campaign's real adversary.
			{Kind: "gap", Series: "final-contained", Axis: "churn", From: 1, To: 0, MinGap: 0.3},
			{Kind: "bounded", Series: "contained", Lo: f(0.5)},
		},
	})

	Register(Scenario{
		Name:     "soap-clone-budget",
		Question: "How many clones does a SOAP campaign need before containment holds through its worst moment?",
		Figure:   "Fig 7 / §VII-A",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-soap"},
			Soap: []soap.Spec{
				{Clones: 4},
				{Clones: 16},
				{Clones: 64},
			},
			Seeds:  []uint64{1},
			Trials: 2,
			Thresholds: []experiment.Threshold{
				{Series: "min-contained", Axis: "soap", Above: f(0.5)},
			},
		},
		Expect: []Expectation{
			{Kind: "monotone", Series: "min-contained", Axis: "soap", Direction: "increasing"},
			// The budget that keeps worst-case containment above half
			// lands between 4 and 16 clones ("clones≈…", interpolated).
			{Kind: "threshold_in", Series: "min-contained", Axis: "soap", Above: f(0.5), Lo: f(4), Hi: f(16)},
		},
	})

	Register(Scenario{
		Name:     "pow-pricing",
		Question: "Does proof-of-work hardening shut out a non-paying SOAP attacker and tax a paying one?",
		Figure:   "§VII-A hardening",
		Sweep: &experiment.Sweep{
			Experiments: []string{"pow"},
			Seeds:       []uint64{1},
		},
		Expect: []Expectation{
			// Scenario order: basic/basic, hardened/basic, hardened/paying.
			// Basic bots fall to the baseline campaign...
			{Kind: "bounded", Series: "contained", Stat: "first", Lo: f(0.9)},
			// ...hardening shuts a non-paying attacker out completely...
			{Kind: "bounded", Series: "contained", Stat: "min", Hi: f(0)},
			// ...and a paying attacker burns millions of hashes to get
			// back in.
			{Kind: "bounded", Series: "attacker-hashes", Stat: "last", Lo: f(1e6)},
		},
	})

	Register(Scenario{
		Name:     "hsdir-outage-retries",
		Question: "Does a client retry budget buy back C&C reachability through a targeted 30% HSDir outage?",
		Figure:   "§VI-A fault plane",
		Sweep: &experiment.Sweep{
			Experiments: []string{"hsdir-outage"},
			Faults: []churn.FaultSpec{
				{OutageFrac: 0.3, OutageAtH: 2, OutageTargeted: true, RetryAttempts: 1},
				{OutageFrac: 0.3, OutageAtH: 2, OutageTargeted: true, RetryAttempts: 2, RetryBackoffS: 1800},
				{OutageFrac: 0.3, OutageAtH: 2, OutageTargeted: true, RetryAttempts: 4, RetryBackoffS: 1800},
			},
			Seeds:  []uint64{1},
			Trials: 2,
		},
		Expect: []Expectation{
			{Kind: "monotone", Series: "outage-window-reachability", Axis: "faults", Direction: "increasing"},
			// No-retry clients lose the window entirely; a 4-attempt
			// budget restores it — the gap is the retry budget's value.
			{Kind: "gap", Series: "outage-window-reachability", Axis: "faults", From: 0, To: 2, MinGap: 0.5},
		},
	})

	Register(Scenario{
		Name:     "relay-outage-grind",
		Question: "Does the overlay ride out a sustained relay crash/restart grind without losing cohesion?",
		Figure:   "§VI fault plane",
		Sweep: &experiment.Sweep{
			Experiments: []string{"relay-outage"},
			Faults: []churn.FaultSpec{
				{CrashRate: 12, RestartH: 8, RetryAttempts: 4, RetryBackoffS: 60},
			},
			Seeds:  []uint64{1},
			Trials: 3,
		},
		Expect: []Expectation{
			{Kind: "bounded", Series: "component-frac", Lo: f(0.99)},
			{Kind: "bounded", Series: "non-quality", Lo: f(0.99)},
			// Reachability under grind is statistically distinguishable
			// from a coin flip: the t-interval over 3 trials excludes 0.5.
			{Kind: "ci_excludes", Series: "reachability", Excludes: f(0.5)},
		},
	})

	Register(Scenario{
		Name:     "churn-soap-composition",
		Question: "Does a larger clone budget keep containing the NoN when churn and takedowns run underneath the campaign?",
		Figure:   "§VII-A × §IV-C × Fig 5 composition",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-soap"},
			Churn: []churn.Spec{
				{Process: "poisson", Join: 2, Leave: 2},
				{Process: "takedown", Frac: 0.5, Regions: 2, AtH: 2},
			},
			Soap: []soap.Spec{
				{Clones: 8},
				{Clones: 64},
			},
			Seeds:  []uint64{1},
			Trials: 2,
		},
		Expect: []Expectation{
			// In every churn regime, the 64-clone budget lifts worst-case
			// containment well above the 8-clone campaign.
			{Kind: "gap", Series: "min-contained", Axis: "soap", From: 0, To: 1, MinGap: 0.3},
			{Kind: "bounded", Series: "final-contained", Lo: f(0.5)},
		},
	})

	Register(Scenario{
		Name:     "takedown-replay-ramnit",
		Question: "Does the overlay survive a replay of the February 2015 Ramnit takedown's seizure waves?",
		Figure:   "Fig 5 against PAPERS.md takedown timelines",
		Sweep: &experiment.Sweep{
			Experiments: []string{"churn-repair"},
			Churn: []churn.Spec{
				{Process: "replay", TraceFile: "examples/traces/ramnit-takedown-2015.json"},
			},
			Seeds:  []uint64{1},
			Trials: 3,
		},
		Expect: []Expectation{
			// The seizure waves halve the population but never partition
			// the survivors...
			{Kind: "bounded", Series: "components", Stat: "max", Hi: f(1)},
			{Kind: "bounded", Series: "population", Stat: "min", Lo: f(50)},
			// ...and repair quality stays publishable-high, with a
			// trial-count-sized interval that excludes 0.9.
			{Kind: "bounded", Series: "quality", Lo: f(0.95)},
			{Kind: "ci_excludes", Series: "quality", Excludes: f(0.9)},
		},
	})
}
