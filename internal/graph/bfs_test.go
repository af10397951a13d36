package graph

import (
	"slices"
	"testing"

	"onionbots/internal/sim"
)

// refBFS is the dist-array BFS the level walk replaced, kept as the
// oracle for TestLevelBFSMatchesReference. far is the node its callers
// picked as the double sweep's far end: scanning dist by ascending
// index, the first node at the greatest distance (src itself when
// nothing else is reached).
func refBFS(ix *Indexed, src int32) (sum int64, reached int, ecc, far int32) {
	dist := make([]int32, ix.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ecc = max(ecc, dist[u])
		sum += int64(dist[u])
		for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	far, fd := src, int32(0)
	for i, d := range dist {
		if d > fd {
			far, fd = int32(i), d
		}
	}
	return sum, len(queue), ecc, far
}

// refDiameterApprox is the double sweep as it ran on refBFS, with its
// leading connectivity BFS from node 0.
func refDiameterApprox(ix *Indexed, sweeps int, rng *sim.RNG) (int, bool) {
	n := ix.N()
	if n == 0 {
		return 0, true
	}
	_, reached, _, _ := refBFS(ix, 0)
	members := largestComponentMembers(ix, ix.newScratch())
	var best int32
	for s := 0; s < sweeps; s++ {
		src := members[rng.Intn(len(members))]
		_, _, _, far := refBFS(ix, src)
		_, _, ecc, _ := refBFS(ix, far)
		best = max(best, ecc)
	}
	return int(best), reached == n
}

// randomTestGraph mixes the shapes the metrics meet: sparse random
// graphs that split into components, isolated nodes, and regular
// graphs thinned by deletions.
func randomTestGraph(rng *sim.RNG) *Graph {
	n := 1 + rng.Intn(80)
	if rng.Intn(3) == 0 && n > 5 {
		g, err := RandomRegular(n-n%2, 4, rng)
		if err == nil {
			for i := rng.Intn(n / 2); i > 0; i-- {
				g.RemoveNode(rng.Intn(n))
			}
			return g
		}
	}
	g := New()
	for u := 0; u < n; u++ {
		g.AddNode(u)
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestLevelBFSMatchesReference(t *testing.T) {
	rng := sim.NewRNG(5)
	disconnected, isolated := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := randomTestGraph(rng)
		ix := g.Snapshot()
		if len(ix.Components()) > 1 {
			disconnected++
		}
		sc := ix.newScratch()
		for src := int32(0); int(src) < ix.N(); src++ {
			if ix.Degree(int(src)) == 0 {
				isolated++
			}
			sum, reached, ecc, last := ix.bfs(src, sc)
			far := slices.Min(sc.queue[last:])
			rsum, rreached, recc, rfar := refBFS(ix, src)
			if sum != rsum || reached != rreached || ecc != recc || far != rfar {
				t.Fatalf("trial %d src %d: level BFS (sum %d, reached %d, ecc %d, far %d), reference (%d, %d, %d, %d)",
					trial, src, sum, reached, ecc, far, rsum, rreached, recc, rfar)
			}
		}
		seed := rng.Uint64()
		for sweeps := 1; sweeps <= 4; sweeps++ {
			r, rr := sim.NewRNG(seed), sim.NewRNG(seed)
			d, conn := ix.DiameterApprox(sweeps, r)
			rd, rconn := refDiameterApprox(ix, sweeps, rr)
			if d != rd || conn != rconn || r.Uint64() != rr.Uint64() {
				t.Fatalf("trial %d sweeps %d: DiameterApprox = (%d, %v), reference (%d, %v), or the RNGs diverged",
					trial, sweeps, d, conn, rd, rconn)
			}
		}
	}
	if disconnected == 0 || isolated == 0 {
		t.Fatalf("generator gave %d disconnected graphs and %d isolated nodes; want some of each", disconnected, isolated)
	}
	t.Logf("%d disconnected graphs, %d isolated nodes", disconnected, isolated)
}
