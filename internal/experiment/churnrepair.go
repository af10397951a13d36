package experiment

import (
	"fmt"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "churn-repair",
		Title: "DDSR repair quality under continuous churn (dynamic Figs 5/6)",
		Reads: AxisN | AxisK | AxisChurn,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultChurnRepairConfig(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.N = p.N
			}
			if p.K > 0 {
				cfg.K = p.K
			}
			if p.Churn != nil {
				cfg.Spec = *p.Churn
			}
			r, err := RunChurnRepair(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// ChurnRepairConfig parameterizes the dynamic-membership counterpart of
// the Figure 5/6 resilience analysis: instead of one-shot deletion, a
// churn process runs against a DDSR overlay for a stretch of virtual
// time and repair quality is sampled as it fights the flow.
type ChurnRepairConfig struct {
	// N is the initial overlay size and K its regularity (paper: 10).
	N, K int
	// Duration is the simulated span; SampleEvery the measurement
	// cadence.
	Duration    time.Duration
	SampleEvery time.Duration
	// JoinPeers is the bootstrap candidate count for joining nodes.
	JoinPeers int
	// RepairEvery is the maintenance cadence: removals accumulate
	// unrepaired between passes (ddsr.Lagged), which is what puts the
	// churn rate in a race with repair. Zero repairs instantaneously,
	// degenerating to the static Fig 5 behaviour where rate cannot
	// matter.
	RepairEvery time.Duration
	// Spec is the churn scenario (the swept axis).
	Spec churn.Spec
	// Seed drives all randomness.
	Seed uint64
}

// DefaultChurnRepairConfig returns the full or quick preset. The
// default scenario is symmetric Poisson join/leave at 8 events/hour —
// override it through Params.Churn or a sweep's churn axis, which is
// the whole point of the experiment.
func DefaultChurnRepairConfig(quick bool) ChurnRepairConfig {
	spec := churn.Spec{Process: "poisson", Join: 8, Leave: 8}
	if quick {
		return ChurnRepairConfig{
			N: 250, K: 10, Duration: 24 * time.Hour, SampleEvery: time.Hour,
			JoinPeers: 10, RepairEvery: 30 * time.Minute, Spec: spec, Seed: 5,
		}
	}
	return ChurnRepairConfig{
		N: 5000, K: 10, Duration: 72 * time.Hour, SampleEvery: time.Hour,
		JoinPeers: 10, RepairEvery: 30 * time.Minute, Spec: spec, Seed: 5,
	}
}

// RunChurnRepair builds a K-regular DDSR overlay of N nodes with a
// RepairEvery maintenance cadence (ddsr.Lagged), attaches the
// configured churn process, and samples the overlay every SampleEvery
// for Duration. The result carries four series over virtual hours —
// population, connected components, degree-ratio (average degree over
// K, the repair-health signal), plus a single-point "quality" summary
// series for sweep aggregation:
//
//	quality = mean(degree-ratio over all samples, empty = 0)
//	        × fraction of samples alive and in one component
//
// so 1.0 means "full degree, never partitioned, never extinct" and it
// degrades toward 0 as churn outruns the repair cadence or drains the
// population. Sweeping Spec over leave rates reproduces the paper's
// resilience story as a function of λ instead of a one-shot deletion
// fraction.
func RunChurnRepair(cfg ChurnRepairConfig) (*Result, error) {
	sched := sim.NewScheduler()
	base, err := ddsr.NewRegular(cfg.N, cfg.K, ddsr.DefaultConfig(cfg.K),
		sim.NewSubstream(cfg.Seed, "churn-repair/build"))
	if err != nil {
		return nil, err
	}
	var m ddsr.Maintainer = base
	if cfg.RepairEvery > 0 {
		lagged := ddsr.NewLagged(base)
		sched.Every(cfg.RepairEvery, func() bool {
			lagged.Flush()
			return true
		})
		m = lagged
	}
	target := churn.NewOverlayTarget(m, churn.OverlayOptions{
		JoinPeers: cfg.JoinPeers, Regions: cfg.Spec.Regions,
	})
	eng := churn.NewEngine(sched, sim.SubstreamSeed(cfg.Seed, "churn-repair/engine"), target)
	proc, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	if err := eng.Attach(proc); err != nil {
		return nil, err
	}

	res := &Result{
		ID: "churn-repair",
		Title: fmt.Sprintf("DDSR repair under churn %s, %d-regular n=%d over %s",
			cfg.Spec.Label(), cfg.K, cfg.N, cfg.Duration),
		XLabel: "hours", YLabel: "see series",
	}
	pop := Series{Name: "population"}
	comps := Series{Name: "components"}
	degRatio := Series{Name: "degree-ratio"}

	ratioSum := 0.0
	connected, sampled := 0, 0
	sample := func() {
		h := sched.Elapsed().Hours()
		g := m.Graph()
		n := g.NumNodes()
		pop.Points = append(pop.Points, Point{X: h, Y: float64(n)})
		nc := 0
		if n > 0 {
			nc = graph.NumComponents(g)
		}
		comps.Points = append(comps.Points, Point{X: h, Y: float64(nc)})
		ratio := 0.0
		if n > 0 {
			ratio = g.AvgDegree() / float64(cfg.K)
		}
		ratioSum += ratio
		degRatio.Points = append(degRatio.Points, Point{X: h, Y: ratio})
		sampled++
		if nc == 1 {
			connected++
		}
	}

	sample()
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
		sched.RunUntil(sim.Epoch.Add(t))
		sample()
	}
	eng.Stop()

	meanRatio := ratioSum / float64(sampled)
	connFrac := float64(connected) / float64(sampled)
	quality := meanRatio * connFrac
	res.Series = append(res.Series, pop, comps, degRatio,
		Series{Name: "quality", Points: []Point{{X: 0, Y: quality}}})

	joined, left, takendown := eng.Counts()
	st := base.Stats()
	res.AddNote("churn %s: %d joined, %d left, %d taken down; final population %d",
		cfg.Spec.Label(), joined, left, takendown, target.Size())
	res.AddNote("repair: %d clique edges, %d pruned, %d floor edges, %d join edges",
		st.RepairEdgesAdded, st.EdgesPruned, st.FloorEdgesAdded, st.JoinEdgesAdded)
	res.AddNote("connected %d/%d samples, mean degree-ratio %.3f, quality %.3f",
		connected, sampled, meanRatio, quality)
	return res, nil
}
