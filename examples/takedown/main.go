// Takedown resilience: the Figure 5 experiment in miniature. A
// 10-regular overlay of 1000 nodes suffers gradual node deletions; the
// DDSR self-repairing maintenance keeps it in one piece to ~95%
// deletion while the identical graph without repair shatters past 60%.
//
//	go run ./examples/takedown
package main

import (
	"fmt"
	"io"
	"os"

	"onionbots/internal/ddsr"
	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "takedown: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const (
		n = 1000
		k = 10
	)
	rng := sim.NewRNG(42)
	overlay, err := ddsr.NewRegular(n, k, ddsr.DefaultConfig(k), rng)
	if err != nil {
		return err
	}
	baseline, err := ddsr.NewNormalRegular(n, k, sim.NewRNG(42))
	if err != nil {
		return err
	}
	perm := sim.NewRNG(7).Perm(n)

	fmt.Fprintf(w, "%-10s %12s %12s %14s %14s\n",
		"deleted", "DDSR comps", "Norm comps", "DDSR diam", "Norm diam")
	mrng := sim.NewRNG(9)
	for i := 0; i < n-5; i++ {
		overlay.RemoveNode(perm[i])
		baseline.RemoveNode(perm[i])
		deleted := i + 1
		if deleted%100 != 0 {
			continue
		}
		dc := graph.NumComponents(overlay.Graph())
		nc := graph.NumComponents(baseline.Graph())
		dd, _ := graph.DiameterApprox(overlay.Graph(), 4, mrng)
		nd, _ := graph.DiameterApprox(baseline.Graph(), 4, mrng)
		fmt.Fprintf(w, "%-10d %12d %12d %14d %14d\n", deleted, dc, nc, dd, nd)
	}

	st := overlay.Stats()
	fmt.Fprintf(w, "\nDDSR maintenance: %d repair edges added, %d pruned, %d floor re-peerings\n",
		st.RepairEdgesAdded, st.EdgesPruned, st.FloorEdgesAdded)
	fmt.Fprintln(w, "(diameters are of the largest surviving component)")
	return nil
}
