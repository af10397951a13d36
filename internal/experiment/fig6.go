package experiment

import (
	"fmt"

	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func init() {
	Register(Definition{
		ID:    "fig6",
		Title: "First-partition threshold vs graph size (Fig 6)",
		Reads: AxisN | AxisK,
		Run: func(p Params) ([]*Result, error) {
			cfg := DefaultFig6Config(p.Quick)
			cfg.Seed = p.Seed
			if p.N > 0 {
				cfg.Sizes = []int{p.N}
			}
			if p.K > 0 {
				cfg.K = p.K
			}
			r, err := RunFig6(cfg)
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		},
	})
}

// Fig6Config parameterizes the partition-threshold experiment: how many
// simultaneous (unrepaired) deletions a 10-regular graph of each size
// absorbs before it first partitions.
type Fig6Config struct {
	// Sizes are the graph sizes. Paper: 1000..15000.
	Sizes []int
	// K is the regularity. Paper: 10.
	K int
	// Trials averages the threshold over several deletion orders.
	Trials int
	// CheckFrom skips connectivity checks below this deleted fraction
	// (partition never happens that early; checking from 0 wastes most
	// of the runtime).
	CheckFrom float64
	// CheckStride coarse-checks connectivity every this many deletions,
	// then backtracks one checkpoint and fine-scans for the exact
	// threshold. Keeps the n=15000 sweep tractable.
	CheckStride int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFig6Config returns the paper's sweep or a quick preset. The
// quick preset uses the smallest paper sizes; below n≈1000 the
// finite-size threshold sits well above 0.4 and would not reproduce the
// figure's shape.
func DefaultFig6Config(quick bool) Fig6Config {
	if quick {
		return Fig6Config{
			Sizes: []int{1000, 2000}, K: 10, Trials: 2,
			CheckFrom: 0.1, CheckStride: 10, Seed: 3,
		}
	}
	sizes := make([]int, 0, 15)
	for n := 1000; n <= 15000; n += 1000 {
		sizes = append(sizes, n)
	}
	return Fig6Config{Sizes: sizes, K: 10, Trials: 3, CheckFrom: 0.1, CheckStride: 50, Seed: 3}
}

// RunFig6 regenerates Figure 6: the average number of deletions at
// which each graph first splits, plotted against size, with the paper's
// f(x) = 0.4x reference line.
func RunFig6(cfg Fig6Config) (*Result, error) {
	res := &Result{
		ID:     "fig6",
		Title:  fmt.Sprintf("First-partition threshold under simultaneous takedown, %d-regular", cfg.K),
		XLabel: "nodes", YLabel: "nodes deleted at first partition",
	}
	measured := Series{Name: "Graph"}
	reference := Series{Name: "f(x)=.4x"}
	stride := cfg.CheckStride
	if stride < 1 {
		stride = 1
	}
	// Every (size, trial) cell is independent with its own RNG: sweep
	// them in parallel, deterministically. Cell c is size c/Trials,
	// trial c%Trials.
	cells := len(cfg.Sizes) * cfg.Trials
	thresholds := make([]int, cells)
	errs := make([]error, cells)
	fanOut(cells, func(c int) {
		n, trial := cfg.Sizes[c/cfg.Trials], c%cfg.Trials
		//onionlint:allow substream -- pre-substream (n, trial) schedule pinned by archived Fig 6 runs; grid points are distinct by construction
		rng := sim.NewRNG(cfg.Seed + uint64(n)*31 + uint64(trial))
		g, err := graph.RandomRegular(n, cfg.K, rng)
		if err != nil {
			errs[c] = err
			return
		}
		perm := rng.Perm(n)
		threshold := n // if it never partitions (cannot happen), report n
		start := int(float64(n) * cfg.CheckFrom)
		// lag trails g by at most one coarse stride: one clone up
		// front, then the same deletions replayed a checkpoint
		// late. When a coarse connectivity check fails, the exact
		// threshold is fine-scanned on lag — O(1) amortized per
		// deletion where the seed cloned the whole graph at every
		// passing checkpoint.
		lag := g.Clone()
		lagAt := 0
		for i := 0; i < n-1; i++ {
			g.RemoveNode(perm[i])
			if i+1 < start {
				continue
			}
			coarse := (i+1)%stride == 0 || i+1 == n-1
			if !coarse {
				continue
			}
			if !g.Connected() {
				// Fine-scan from the last connected checkpoint.
				for j := lagAt; j <= i; j++ {
					lag.RemoveNode(perm[j])
					if !lag.Connected() {
						threshold = j + 1
						break
					}
				}
				break
			}
			for ; lagAt <= i; lagAt++ {
				lag.RemoveNode(perm[lagAt])
			}
		}
		thresholds[c] = threshold
	})
	for si, n := range cfg.Sizes {
		total := 0
		for c := si * cfg.Trials; c < (si+1)*cfg.Trials; c++ {
			if errs[c] != nil {
				return nil, errs[c]
			}
			total += thresholds[c]
		}
		avg := float64(total) / float64(cfg.Trials)
		measured.Points = append(measured.Points, Point{X: float64(n), Y: avg})
		reference.Points = append(reference.Points, Point{X: float64(n), Y: 0.4 * float64(n)})
	}
	res.Series = append(res.Series, measured, reference)

	// The paper's stated takeaway: ~40% of nodes must go down
	// simultaneously before the network splits.
	sumFrac := 0.0
	for _, p := range measured.Points {
		sumFrac += p.Y / p.X
	}
	res.AddNote("mean first-partition fraction %.3f (paper: about 0.4)", sumFrac/float64(len(measured.Points)))
	return res, nil
}
