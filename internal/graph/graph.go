package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Graph is a mutable, undirected, simple graph over dense non-negative
// int node ids. Each id owns one sorted []int32 neighbor row, and a
// presence bitmap tells an isolated node from an absent one, so the
// storage grows with the largest id ever added. The zero value is not
// usable; call New.
type Graph struct {
	rows    [][]int32 // rows[id]: sorted neighbors of id; empty when absent
	present []uint64  // bit id is set iff node id exists
	nodes   int
	edges   int

	// Connected's reusable BFS scratch: node id is visited iff
	// visit[id] == visitGen, so a new sweep is a generation bump, not a
	// reset or an allocation. Clones rebuild it on first use.
	visit    []uint32
	visitGen uint32
	queue    []int32
	// among is AddEdgesAmong's sorted, deduplicated member list.
	among []int32
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges reports the number of (undirected) edges.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id int) bool {
	return uint(id) < uint(len(g.rows)) && g.present[id>>6]&(1<<(id&63)) != 0
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
// Ids index the adjacency rows directly, so a negative id (or one past
// math.MaxInt32) panics; a large sparse id is legal and only grows the
// storage.
func (g *Graph) AddNode(id int) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node id %d out of range [0, MaxInt32]", id))
	}
	if id >= len(g.rows) {
		g.rows = append(g.rows, make([][]int32, id+1-len(g.rows))...)
		g.present = append(g.present, make([]uint64, id>>6+1-len(g.present))...)
	}
	if !g.HasNode(id) {
		g.present[id>>6] |= 1 << (id & 63)
		g.nodes++
	}
}

// RemoveNode deletes id and every incident edge, returning the sorted
// list of its former neighbors (the DDSR repair step needs exactly this).
// Removing an absent node returns nil.
func (g *Graph) RemoveNode(id int) []int {
	if !g.HasNode(id) {
		return nil
	}
	row := g.rows[id]
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
		g.rows[v] = remove(g.rows[v], int32(id))
	}
	g.edges -= len(row)
	g.rows[id] = nil
	g.present[id>>6] &^= 1 << (id & 63)
	g.nodes--
	return out
}

// remove deletes v from the sorted row if present.
func remove(row []int32, v int32) []int32 {
	if i, found := slices.BinarySearch(row, v); found {
		return slices.Delete(row, i, i+1)
	}
	return row
}

// link adds the edge (u, v) between two present, distinct nodes and
// reports whether it was new.
func (g *Graph) link(u, v int) bool {
	i, found := slices.BinarySearch(g.rows[u], int32(v))
	if found {
		return false
	}
	g.rows[u] = slices.Insert(g.rows[u], i, int32(v))
	j, _ := slices.BinarySearch(g.rows[v], int32(u))
	g.rows[v] = slices.Insert(g.rows[v], j, int32(u))
	g.edges++
	return true
}

// AddEdge inserts the undirected edge (u, v), creating missing endpoints.
// Self-loops are rejected. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		return false
	}
	g.AddNode(u)
	g.AddNode(v)
	return g.link(u, v)
}

// AddEdgesAmong links every pair of the given nodes (clique insertion),
// returning the number of edges created. It is the hot path of DDSR
// repair. Nodes must already exist; absent and repeated ids are
// ignored. The members are sorted once into the graph's scratch, and
// each member's row takes them in one back-to-front merge, so a
// d-clique costs O(d + row) per row rather than d bisect-and-shifts.
func (g *Graph) AddEdgesAmong(nodes []int) int {
	set := g.among[:0]
	for _, u := range nodes {
		if g.HasNode(u) {
			set = append(set, int32(u))
		}
	}
	slices.Sort(set)
	set = slices.Compact(set)
	g.among = set
	half := 0
	for _, u := range set {
		half += g.mergeRow(int(u), set)
	}
	g.edges += half / 2
	return half / 2
}

// mergeRow merges the sorted set, minus u itself, into u's sorted row
// and returns how many entries were new. The row grows once and is
// filled from the back, so no entry moves more than once.
func (g *Graph) mergeRow(u int, set []int32) int {
	row := g.rows[u]
	self := int32(u)
	// fresh = |set| - 1 (u itself) - |row ∩ set|; the intersection count
	// steps both cursors without branching on the comparison.
	common := 0
	for i, j := 0, 0; i < len(row) && j < len(set); {
		a, b := row[i], set[j]
		if a <= b {
			i++
		}
		if b <= a {
			j++
		}
		if a == b {
			common++
		}
	}
	fresh := len(set) - 1 - common
	if fresh == 0 {
		return 0
	}
	i := len(row) - 1
	row = slices.Grow(row, fresh)[:len(row)+fresh]
	k := len(row) - 1
	for j := len(set) - 1; j >= 0; j-- {
		v := set[j]
		for i >= 0 && row[i] > v {
			row[k] = row[i]
			i, k = i-1, k-1
		}
		if v == self || (i >= 0 && row[i] == v) {
			continue
		}
		row[k] = v
		k--
	}
	g.rows[u] = row
	return fresh
}

// RemoveEdge deletes the undirected edge (u, v) and reports whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	i, found := slices.BinarySearch(g.Row(u), int32(v))
	if !found || !g.HasNode(v) {
		return false
	}
	g.rows[u] = slices.Delete(g.rows[u], i, i+1)
	g.rows[v] = remove(g.rows[v], int32(u))
	g.edges--
	return true
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, found := slices.BinarySearch(g.Row(u), int32(v))
	return found && g.HasNode(v)
}

// Degree reports the degree of id (0 for an absent node).
func (g *Graph) Degree(id int) int { return len(g.Row(id)) }

// Neighbors returns the sorted neighbors of id.
func (g *Graph) Neighbors(id int) []int {
	row := g.Row(id)
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// Row returns id's sorted neighbor row itself, not a copy (nil for an
// absent id): the allocation-free form of Neighbors for scans that do
// not mutate the graph while they read, like DDSR's prune and floor
// picks. The row is read-only and valid until the next mutation.
func (g *Graph) Row(id int) []int32 {
	if uint(id) < uint(len(g.rows)) {
		return g.rows[id]
	}
	return nil
}

// Nodes returns all node ids, sorted.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, g.nodes)
	for w, word := range g.present {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// MaxDegree reports the largest degree in the graph (0 if empty).
func (g *Graph) MaxDegree() int {
	best := 0
	for _, row := range g.rows {
		best = max(best, len(row))
	}
	return best
}

// AvgDegree reports the mean degree (0 if empty).
func (g *Graph) AvgDegree() float64 {
	if g.nodes == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.nodes)
}

// Connected reports whether the graph is connected, without building an
// Indexed snapshot: one BFS straight over the adjacency rows, visited
// bookkeeping in the reusable index-stamped scratch. Empty and
// single-node graphs count as connected. This is the fast path behind
// partition-threshold scans (Fig 6), which ask "still one component?"
// after every deletion batch.
func (g *Graph) Connected() bool {
	if g.nodes <= 1 {
		return true
	}
	if len(g.visit) < len(g.rows) {
		g.visit = make([]uint32, len(g.rows))
		g.visitGen = 0
	}
	g.visitGen++
	if g.visitGen == 0 {
		clear(g.visit)
		g.visitGen = 1
	}
	gen := g.visitGen
	start := 0
	for !g.HasNode(start) {
		start++
	}
	g.visit[start] = gen
	g.queue = append(g.queue[:0], int32(start))
	for head := 0; head < len(g.queue); head++ {
		for _, v := range g.rows[g.queue[head]] {
			if g.visit[v] != gen {
				g.visit[v] = gen
				g.queue = append(g.queue, v)
			}
		}
	}
	return len(g.queue) == g.nodes
}

// Clone returns a deep copy that shares no row with g. It takes none of
// g's scratch (Connected's, AddEdgesAmong's); the copy grows its own on
// first use.
func (g *Graph) Clone() *Graph {
	c := &Graph{rows: make([][]int32, len(g.rows)), present: slices.Clone(g.present),
		nodes: g.nodes, edges: g.edges}
	for id, row := range g.rows {
		c.rows[id] = slices.Clone(row)
	}
	return c
}

// Validate checks internal consistency (sorted duplicate-free rows,
// symmetry, no self-loops, node and edge counts) and returns a
// descriptive error on the first violation. It is used by tests and by
// property checks after mutation-heavy experiments.
func (g *Graph) Validate() error {
	halfEdges, nodes := 0, 0
	for u, row := range g.rows {
		if !g.HasNode(u) {
			if len(row) != 0 {
				return fmt.Errorf("graph: absent node %d has %d neighbors", u, len(row))
			}
			continue
		}
		nodes++
		for i, v := range row {
			switch {
			case i > 0 && row[i-1] >= v:
				return fmt.Errorf("graph: row of node %d not strictly sorted at %d", u, v)
			case int(v) == u:
				return fmt.Errorf("graph: self-loop at node %d", u)
			case !g.HasNode(int(v)):
				return fmt.Errorf("graph: edge (%d,%d) points to missing node", u, v)
			case !g.HasEdge(int(v), u):
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
		halfEdges += len(row)
	}
	if nodes != g.nodes {
		return fmt.Errorf("graph: node count %d inconsistent with presence bitmap %d", g.nodes, nodes)
	}
	if halfEdges != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency half-edges %d", g.edges, halfEdges)
	}
	return nil
}
