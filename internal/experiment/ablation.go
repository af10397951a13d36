package experiment

import (
	"fmt"

	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "ablation",
		Title: "DDSR maintenance-policy ablation under gradual takedown",
		Reads: AxisN | AxisK,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultAblationConfig(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.N = p.N
			}
			if p.K > 0 {
				cfg.K = p.K
			}
			r, err := RunDDSRAblation(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// AblationConfig parameterizes the DDSR design-choice ablation: each
// maintenance ingredient is toggled independently and the overlay is
// subjected to the same gradual takedown.
type AblationConfig struct {
	// N and K define the starting topology.
	N, K int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultAblationConfig returns presets.
func DefaultAblationConfig(quick bool) AblationConfig {
	if quick {
		return AblationConfig{N: 300, K: 10, Seed: 6}
	}
	return AblationConfig{N: 2000, K: 10, Seed: 6}
}

// RunDDSRAblation compares four maintenance policies under identical
// gradual takedown: full DDSR, DDSR without the DMin floor, DDSR
// without pruning, and no repair at all. For each it reports the
// deletion fraction at which the overlay first partitions, the final
// maximum degree, and the maintenance work performed.
func RunDDSRAblation(cfg AblationConfig) (*Result, error) {
	res := &Result{
		ID:    "ablation",
		Title: fmt.Sprintf("DDSR maintenance ablation, %d-regular n=%d", cfg.K, cfg.N),
		Header: []string{"policy", "first partition", "max degree at 30%",
			"repair edges", "pruned edges", "floor edges"},
	}

	type policy struct {
		name   string
		repair bool
		cfg    ddsr.Config
	}
	full := ddsr.DefaultConfig(cfg.K)
	noFloor := full
	noFloor.DMin = 0
	noPrune := ddsr.Config{Pruning: false}
	policies := []policy{
		{"full DDSR (repair+prune+floor)", true, full},
		{"no DMin floor", true, noFloor},
		{"no pruning", true, noPrune},
		{"no repair (normal)", false, ddsr.Config{}},
	}

	for _, p := range policies {
		rng := sim.NewRNG(cfg.Seed)
		var m ddsr.Maintainer
		var overlay *ddsr.Overlay
		if p.repair {
			o, err := ddsr.NewRegular(cfg.N, cfg.K, p.cfg, rng)
			if err != nil {
				return nil, err
			}
			overlay = o
			m = o
		} else {
			nrm, err := ddsr.NewNormalRegular(cfg.N, cfg.K, rng)
			if err != nil {
				return nil, err
			}
			m = nrm
		}
		//onionlint:allow substream -- pre-substream seed schedule pinned by archived ablation runs; relabeling would reshuffle every published curve
		perm := sim.NewRNG(cfg.Seed + 1).Perm(cfg.N)

		firstPartition := -1
		maxDegAt30 := 0
		checkpoint30 := int(0.3 * float64(cfg.N))
		for i := 0; i < cfg.N-3; i++ {
			m.RemoveNode(perm[i])
			if i+1 == checkpoint30 {
				maxDegAt30 = m.Graph().MaxDegree()
			}
			if firstPartition < 0 && (i+1)%10 == 0 {
				if graph.NumComponents(m.Graph()) > 1 {
					firstPartition = i + 1
				}
			}
		}
		partition := "never (to 3 survivors)"
		if firstPartition >= 0 {
			partition = fmt.Sprintf("%.0f%%", 100*float64(firstPartition)/float64(cfg.N))
		}
		var st ddsr.Stats
		if overlay != nil {
			st = overlay.Stats()
		}
		res.Rows = append(res.Rows, []string{
			p.name, partition, fmt.Sprintf("%d", maxDegAt30),
			fmt.Sprintf("%d", st.RepairEdgesAdded),
			fmt.Sprintf("%d", st.EdgesPruned),
			fmt.Sprintf("%d", st.FloorEdgesAdded),
		})
	}
	res.AddNote("repair is what defers partition; pruning is what keeps degrees small; the floor tops up starved nodes")
	return res, nil
}
