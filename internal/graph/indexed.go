package graph

import "math"

// Indexed is an immutable compressed-adjacency snapshot of a Graph with
// dense ids 0..N-1. Metrics run against snapshots: every row sits in one
// contiguous array, and BFS bookkeeping is sized by the population
// rather than by the largest id the graph ever held.
type Indexed struct {
	// IDs maps dense index -> original node id, sorted ascending.
	IDs []int
	// off/nbr form a CSR structure: neighbors of dense node i are
	// nbr[off[i]:off[i+1]].
	off []int32
	nbr []int32
}

// Snapshot builds an Indexed view of g. The id -> index table is
// monotone, so each already-sorted Graph row stays sorted in the
// snapshot, and everything order-sensitive built on it (like the
// double-sweep diameter heuristic) is a pure function of the graph.
func (g *Graph) Snapshot() *Indexed {
	ids := g.Nodes()
	index := make([]int32, len(g.rows))
	off := make([]int32, len(ids)+1)
	for i, id := range ids {
		index[id] = int32(i)
		off[i+1] = off[i] + int32(len(g.rows[id]))
	}
	nbr := make([]int32, off[len(ids)])
	for i, id := range ids {
		row := nbr[off[i]:off[i+1]]
		for j, v := range g.rows[id] {
			row[j] = index[v]
		}
	}
	return &Indexed{IDs: ids, off: off, nbr: nbr}
}

// N reports the number of nodes in the snapshot.
func (ix *Indexed) N() int { return len(ix.IDs) }

// Degree reports the degree of dense node i.
func (ix *Indexed) Degree(i int) int { return int(ix.off[i+1] - ix.off[i]) }

// bfsScratch holds reusable BFS buffers so that metric loops allocate
// once per snapshot rather than once per source. Visited bookkeeping is
// index-stamped: a sweep owns the stamps from gen up, node i counts as
// visited iff stamp[i] >= gen, and bfs stamps a node with gen plus its
// distance. Starting a new sweep moves gen past every stamp written so
// far, which is a counter bump instead of an O(n) slice reset (and
// instead of the per-sweep map or []bool allocations the seed helpers
// paid).
type bfsScratch struct {
	stamp []uint32
	gen   uint32 // the current sweep's level-0 stamp
	top   uint32 // the highest stamp written by any sweep
	queue []int32
}

func (ix *Indexed) newScratch() *bfsScratch {
	return &bfsScratch{
		stamp: make([]uint32, ix.N()),
		queue: make([]int32, 0, ix.N()),
	}
}

// next starts a fresh sweep, with room for a stamp per BFS level. It
// resets the stamps once when the uint32 range runs out.
func (sc *bfsScratch) next() {
	if sc.top > math.MaxUint32-uint32(len(sc.stamp))-1 {
		clear(sc.stamp)
		sc.top = 0
	}
	sc.gen = sc.top + 1
	sc.top = sc.gen
	sc.queue = sc.queue[:0]
}

// seen reports whether i was visited in the current sweep.
func (sc *bfsScratch) seen(i int32) bool { return sc.stamp[i] >= sc.gen }

// visit marks i visited in the current sweep.
func (sc *bfsScratch) visit(i int32) { sc.stamp[i] = sc.gen }

// bfs runs a breadth-first search from src and returns (sum of distances
// to reached nodes, number of reached nodes including src, eccentricity,
// start of the last level in sc.queue). It walks the queue one level at
// a time, so no per-node distance is stored: the level's depth times
// its size is its share of the sum, and sc.queue[last:] holds exactly
// the nodes at distance ecc, in no particular order.
//
// Each level is expanded in whichever direction checks fewer edges
// (Beamer et al., SC 2012). Top-down checks every edge of the nf
// frontier nodes, about avgDeg·nf. Bottom-up stops at each of the nu
// unvisited nodes' first neighbour in the frontier; a neighbour of an
// unvisited node is frontier or unvisited, so that takes about
// (nf+nu)/nf checks per node. On the paper's regular graphs the middle
// levels go bottom-up, and on the near-complete graphs of Fig 4
// without pruning every level after the first does.
func (ix *Indexed) bfs(src int32, sc *bfsScratch) (sum int64, reached int, ecc int32, last int) {
	n := ix.N()
	avgDeg := int64(len(ix.nbr)) / int64(max(n, 1))
	sc.next()
	sc.visit(src)
	sc.queue = append(sc.queue, src)
	for head := 0; ; ecc++ {
		last = head
		end := len(sc.queue)
		sum += int64(ecc) * int64(end-head)
		level := sc.gen + uint32(ecc)
		nf, nu := int64(end-head), int64(n-end)
		if nu*(nf+nu) < avgDeg*nf*nf {
			for v := range int32(n) {
				if sc.stamp[v] >= sc.gen {
					continue
				}
				for _, u := range ix.nbr[ix.off[v]:ix.off[v+1]] {
					if sc.stamp[u] == level {
						sc.stamp[v] = level + 1
						sc.queue = append(sc.queue, v)
						break
					}
				}
			}
			head = end
		} else {
			for ; head < end; head++ {
				u := sc.queue[head]
				for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
					if sc.stamp[v] < sc.gen {
						sc.stamp[v] = level + 1
						sc.queue = append(sc.queue, v)
					}
				}
			}
		}
		if len(sc.queue) == end {
			sc.top = level
			return sum, end, ecc, last
		}
	}
}
