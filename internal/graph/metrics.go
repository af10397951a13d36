package graph

import (
	"slices"

	"onionbots/internal/sim"
)

// Components returns the sizes of the connected components, largest
// first. An empty graph has no components.
func Components(g *Graph) []int {
	return g.Snapshot().Components()
}

// NumComponents reports the number of connected components.
func NumComponents(g *Graph) int { return len(Components(g)) }

// Components returns component sizes, largest first.
func (ix *Indexed) Components() []int {
	n := ix.N()
	sc := ix.newScratch()
	sc.next()
	var sizes []int
	for s := 0; s < n; s++ {
		if sc.seen(int32(s)) {
			continue
		}
		size := 0
		head := len(sc.queue)
		sc.queue = append(sc.queue, int32(s))
		sc.visit(int32(s))
		for ; head < len(sc.queue); head++ {
			u := sc.queue[head]
			size++
			for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
				if !sc.seen(v) {
					sc.visit(v)
					sc.queue = append(sc.queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	// Largest first (insertion sort: component counts are tiny in every
	// experiment until the graph shatters, and even then this is cheap
	// relative to the BFS above).
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}

// Connected reports whether the graph is connected. Empty and
// single-node graphs count as connected.
func (ix *Indexed) Connected() bool {
	if ix.N() <= 1 {
		return true
	}
	_, reached, _, _ := ix.bfs(0, ix.newScratch())
	return reached == ix.N()
}

// AvgDegreeCentrality reports the mean normalized degree centrality:
// mean(deg(u)) / (n-1), the quantity plotted in Figs 4c/4d and 5c/5d.
// Graphs with fewer than two nodes report 0.
func AvgDegreeCentrality(g *Graph) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return g.AvgDegree() / float64(n-1)
}

// AvgCloseness reports the mean closeness centrality over the graph,
// estimated from sample BFS sources (sample <= 0 or >= n means exact).
// Closeness of u follows the Wasserman-Faust form used by standard graph
// toolkits, which handles disconnected graphs gracefully:
//
//	C(u) = ((r-1) / sum_dist) * ((r-1) / (n-1))
//
// where r is the number of nodes reachable from u. On a connected graph
// this is the textbook (n-1)/sum_dist. Isolated nodes score 0.
func AvgCloseness(g *Graph, sample int, rng *sim.RNG) float64 {
	ix := g.Snapshot()
	return ix.AvgCloseness(sample, rng)
}

// AvgCloseness is the snapshot form of the package-level AvgCloseness.
func (ix *Indexed) AvgCloseness(sample int, rng *sim.RNG) float64 {
	n := ix.N()
	if n < 2 {
		return 0
	}
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	if sample > 0 && sample < n {
		if rng == nil {
			rng = sim.NewRNG(0)
		}
		rng.Shuffle(n, func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		sources = sources[:sample]
	}
	sc := ix.newScratch()
	total := 0.0
	for _, src := range sources {
		sum, reached, _, _ := ix.bfs(src, sc)
		if reached < 2 || sum == 0 {
			continue // isolated node contributes 0
		}
		r1 := float64(reached - 1)
		total += (r1 / float64(sum)) * (r1 / float64(n-1))
	}
	return total / float64(len(sources))
}

// Diameter reports the exact diameter (longest shortest path) of the
// graph's largest connected component, along with whether the whole
// graph is connected. The paper treats the diameter of a partitioned
// graph as infinite; callers use the connected flag to decide how to
// plot. Graphs with fewer than two nodes have diameter 0.
func Diameter(g *Graph) (diam int, connected bool) {
	ix := g.Snapshot()
	return ix.Diameter()
}

// Diameter is the snapshot form of the package-level Diameter.
func (ix *Indexed) Diameter() (diam int, connected bool) {
	n := ix.N()
	if n == 0 {
		return 0, true
	}
	sc := ix.newScratch()
	members := largestComponentMembers(ix, sc)
	var max int32
	for _, s := range members {
		_, _, ecc, _ := ix.bfs(s, sc)
		if ecc > max {
			max = ecc
		}
	}
	return int(max), len(members) == n
}

// DiameterApprox lower-bounds the diameter of the largest component with
// repeated double sweeps: BFS from a random source, then BFS again from
// the farthest node found. On the random regular graphs used throughout
// the paper the bound is almost always exact; tests cross-check against
// Diameter on small graphs. sweeps <= 0 defaults to 4.
func DiameterApprox(g *Graph, sweeps int, rng *sim.RNG) (diam int, connected bool) {
	ix := g.Snapshot()
	return ix.DiameterApprox(sweeps, rng)
}

// DiameterApprox is the snapshot form of the package-level DiameterApprox.
func (ix *Indexed) DiameterApprox(sweeps int, rng *sim.RNG) (diam int, connected bool) {
	n := ix.N()
	if n == 0 {
		return 0, true
	}
	if sweeps <= 0 {
		sweeps = 4
	}
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	sc := ix.newScratch()
	// Sweeps start inside the largest component, and the graph is
	// connected iff that component holds every node.
	members := largestComponentMembers(ix, sc)
	var best int32
	for s := 0; s < sweeps; s++ {
		src := members[rng.Intn(len(members))]
		// The far node is the lowest index at the greatest distance
		// from src: the minimum of the last BFS level.
		_, _, _, last := ix.bfs(src, sc)
		far := slices.Min(sc.queue[last:])
		_, _, ecc, _ := ix.bfs(far, sc)
		best = max(best, ecc)
	}
	return int(best), len(members) == n
}

// largestComponentMembers runs the shared largest-component scan: one
// BFS sweep labelling every component, returning the members of the
// biggest. Diameter and DiameterApprox both restrict their eccentricity
// sweeps to it, passing their scratch (whose generation this consumes).
// On an empty graph it returns {0} for the convenience of sweep
// callers, which never see that case (they guard n == 0).
func largestComponentMembers(ix *Indexed, sc *bfsScratch) []int32 {
	n := ix.N()
	sc.next()
	var best []int32
	for s := 0; s < n; s++ {
		if sc.seen(int32(s)) {
			continue
		}
		sc.queue = sc.queue[:0]
		sc.queue = append(sc.queue, int32(s))
		sc.visit(int32(s))
		for head := 0; head < len(sc.queue); head++ {
			u := sc.queue[head]
			for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
				if !sc.seen(v) {
					sc.visit(v)
					sc.queue = append(sc.queue, v)
				}
			}
		}
		if len(sc.queue) > len(best) {
			best = append(best[:0:0], sc.queue...)
		}
	}
	if best == nil {
		best = []int32{0}
	}
	return best
}
