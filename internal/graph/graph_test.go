package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"onionbots/internal/sim"
)

func TestAddRemoveNodeEdgeBasics(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1) // idempotent
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge(1,2) = false, want true")
	}
	if g.AddEdge(1, 2) || g.AddEdge(2, 1) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.AddEdge(3, 3) {
		t.Fatal("self-loop AddEdge returned true")
	}
	if g.HasNode(3) {
		t.Fatal("rejected self-loop should not create its node")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d, want 2, 1", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("HasEdge not symmetric")
	}
	if !g.RemoveEdge(1, 2) || g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge idempotency broken")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeReturnsSortedNeighbors(t *testing.T) {
	g := New()
	g.AddEdge(5, 9)
	g.AddEdge(5, 1)
	g.AddEdge(5, 7)
	nbrs := g.RemoveNode(5)
	want := []int{1, 7, 9}
	if len(nbrs) != 3 {
		t.Fatalf("neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v (sorted)", nbrs, want)
		}
	}
	if g.HasNode(5) || g.NumEdges() != 0 {
		t.Fatal("RemoveNode left residue")
	}
	if g.RemoveNode(5) != nil {
		t.Fatal("removing absent node should return nil")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAndNeighborsSorted(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Fatalf("star center degree = %d, want 4", g.Degree(0))
	}
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("Neighbors not sorted: %v", nbrs)
		}
	}
	if g.Degree(99) != 0 {
		t.Fatal("absent node degree != 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.RemoveNode(0)
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAvgDegree(t *testing.T) {
	tests := []struct {
		name   string
		g      *Graph
		maxDeg int
		avgDeg float64
	}{
		{"empty", New(), 0, 0},
		{"ring10", Ring(10), 2, 2},
		{"star5", Star(5), 4, 8.0 / 5},
		{"complete4", Complete(4), 3, 3},
		{"path3", Path(3), 2, 4.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.MaxDegree(); got != tt.maxDeg {
				t.Errorf("MaxDegree = %d, want %d", got, tt.maxDeg)
			}
			if got := tt.g.AvgDegree(); got != tt.avgDeg {
				t.Errorf("AvgDegree = %v, want %v", got, tt.avgDeg)
			}
		})
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Each case corrupts one row by reaching into the representation.
	tests := []struct {
		name    string
		corrupt func(g *Graph)
	}{
		{"asymmetric", func(g *Graph) { g.rows[2] = []int32{3} }},
		{"unsorted", func(g *Graph) { g.rows[1] = []int32{3, 2} }},
		{"duplicate", func(g *Graph) { g.rows[1] = []int32{2, 2, 3} }},
		{"self-loop", func(g *Graph) { g.rows[1] = []int32{1, 2, 3} }},
		{"missing-node", func(g *Graph) { g.rows[3] = []int32{1, 2, 5} }},
		{"absent-row", func(g *Graph) { g.RemoveNode(3); g.rows[3] = []int32{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := New()
			g.AddEdge(1, 2)
			g.AddEdge(1, 3)
			g.AddEdge(2, 3)
			g.AddNode(4)
			if err := g.Validate(); err != nil {
				t.Fatalf("clean graph: %v", err)
			}
			tt.corrupt(g)
			if err := g.Validate(); err == nil {
				t.Fatal("Validate accepted a corrupted row")
			}
		})
	}
}

func TestGraphPropertyRandomMutations(t *testing.T) {
	// Random interleavings of mutations always leave a valid graph.
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRNG(seed)
		g := New()
		ops := int(opsRaw)%200 + 20
		for i := 0; i < ops; i++ {
			u, v := rng.Intn(30), rng.Intn(30)
			switch rng.Intn(4) {
			case 0:
				g.AddEdge(u, v)
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.AddNode(u)
			case 3:
				g.RemoveNode(u)
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeNegativeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode(-1) did not panic")
		}
	}()
	New().AddNode(-1)
}

func TestSparseIDsAndNegativeQueries(t *testing.T) {
	// A large sparse id only grows the storage; queries about negative
	// or out-of-range ids answer "absent" without panicking.
	g := New()
	g.AddEdge(5, 100000)
	g.AddEdge(100000, 3)
	if !g.Connected() {
		t.Fatal("3-node path reported disconnected")
	}
	g.AddNode(42)
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	if got := NumComponents(g); got != 2 {
		t.Fatalf("NumComponents = %d, want 2", got)
	}
	if g.HasNode(-1) || g.HasEdge(-1, 5) || g.HasEdge(5, -1) || g.HasEdge(5, 1<<40) ||
		g.Degree(-1) != 0 || g.RemoveNode(-1) != nil || g.RemoveEdge(-1, 5) {
		t.Fatal("negative or out-of-range id reported present")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedMatchesComponents(t *testing.T) {
	rng := sim.NewRNG(31)
	g, err := RandomRegular(60, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(60)
	for i := 0; i < 57; i++ {
		g.RemoveNode(perm[i])
		want := NumComponents(g) <= 1
		if got := g.Connected(); got != want {
			t.Fatalf("after %d deletions: Connected=%v, NumComponents says %v", i+1, got, want)
		}
	}
}

// refGraph is a deliberately naive map-of-maps model of Graph's
// contract, kept only as the oracle for TestGraphMatchesReference.
type refGraph map[int]map[int]struct{}

func (r refGraph) addNode(id int) {
	if _, ok := r[id]; !ok {
		r[id] = map[int]struct{}{}
	}
}

func (r refGraph) addEdge(u, v int) bool {
	if u == v {
		return false
	}
	r.addNode(u)
	r.addNode(v)
	if _, ok := r[u][v]; ok {
		return false
	}
	r[u][v], r[v][u] = struct{}{}, struct{}{}
	return true
}

func (r refGraph) addEdgesAmong(nodes []int) int {
	added := 0
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			_, okU := r[u]
			_, okV := r[v]
			if okU && okV && r.addEdge(u, v) {
				added++
			}
		}
	}
	return added
}

func (r refGraph) removeEdge(u, v int) bool {
	if _, ok := r[u][v]; !ok {
		return false
	}
	delete(r[u], v)
	delete(r[v], u)
	return true
}

func (r refGraph) removeNode(id int) []int {
	if _, ok := r[id]; !ok {
		return nil
	}
	out := r.neighbors(id)
	for _, v := range out {
		delete(r[v], id)
	}
	delete(r, id)
	return out
}

func (r refGraph) neighbors(id int) []int {
	out := []int{}
	for v := range r[id] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (r refGraph) numEdges() int {
	half := 0
	for _, nbrs := range r {
		half += len(nbrs)
	}
	return half / 2
}

// components returns component sizes, largest first.
func (r refGraph) components() []int {
	var sizes []int
	seen := map[int]bool{}
	for s := range r {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack, size := []int{s}, 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for v := range r[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	slices.Sort(sizes)
	slices.Reverse(sizes)
	return sizes
}

// assertSameGraph compares every read-side query of g against the
// reference over the ids 0..span-1 (and a few out-of-range probes).
func assertSameGraph(t *testing.T, step string, g *Graph, ref refGraph, span int) {
	t.Helper()
	if g.NumNodes() != len(ref) || g.NumEdges() != ref.numEdges() {
		t.Fatalf("%s: nodes/edges = %d/%d, reference %d/%d",
			step, g.NumNodes(), g.NumEdges(), len(ref), ref.numEdges())
	}
	for u := -1; u <= span; u++ {
		_, has := ref[u]
		want := ref.neighbors(u)
		if g.HasNode(u) != has || g.Degree(u) != len(want) || !reflect.DeepEqual(g.Neighbors(u), want) {
			t.Fatalf("%s: node %d: has=%v deg=%d nbrs=%v, reference has=%v nbrs=%v",
				step, u, g.HasNode(u), g.Degree(u), g.Neighbors(u), has, want)
		}
		for v := -1; v <= span; v++ {
			_, want := ref[u][v]
			if g.HasEdge(u, v) != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, reference %v", step, u, v, !want, want)
			}
		}
	}
	if want := len(ref.components()) <= 1; g.Connected() != want {
		t.Fatalf("%s: Connected = %v, reference %v", step, !want, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

func TestGraphMatchesReference(t *testing.T) {
	// Differential test: random mutation sequences drive Graph and the
	// map-of-maps reference in lockstep; every query must agree after
	// every step. Clique members repeat and include absent ids (never
	// added, or negative). The "wide" shape's cliques grow rows past 100
	// entries, the no-pruning Fig 4 shape, so AddEdgesAmong merges into
	// long rows as well as short ones.
	shapes := []struct {
		name             string
		span, steps      int
		clique, minPeakD int
	}{
		{"narrow", 40, 300, 8, 0},
		{"wide", 160, 80, 130, 100},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 6; seed++ {
			runReferenceShape(t, sh.name, sh.span, sh.steps, sh.clique, sh.minPeakD, seed)
		}
	}
}

func runReferenceShape(t *testing.T, shape string, span, steps, clique, minPeakD int, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, ref := New(), refGraph{}
	if minPeakD > 0 {
		// Start most ids present so that cliques are dense enough to
		// reach the wanted row length.
		for u := 0; u < span; u++ {
			if rng.Intn(10) != 0 {
				g.AddNode(u)
				ref.addNode(u)
			}
		}
	}
	peak := 0
	for i := 0; i < steps; i++ {
		u, v := rng.Intn(span), rng.Intn(span)
		var step string
		switch op := rng.Intn(10); {
		case op == 0:
			step = fmt.Sprintf("AddNode(%d)", u)
			g.AddNode(u)
			ref.addNode(u)
		case op < 4:
			step = fmt.Sprintf("AddEdge(%d,%d)", u, v)
			if got, want := g.AddEdge(u, v), ref.addEdge(u, v); got != want {
				t.Fatalf("%s seed %d: %s = %v, reference %v", shape, seed, step, got, want)
			}
		case op < 6:
			nodes := make([]int, rng.Intn(clique))
			for j := range nodes {
				switch rng.Intn(20) {
				case 0:
					nodes[j] = span + rng.Intn(5) // never added
				case 1:
					nodes[j] = -1 - rng.Intn(3)
				default:
					nodes[j] = rng.Intn(span) // repeats allowed
				}
			}
			step = fmt.Sprintf("AddEdgesAmong(%v)", nodes)
			if got, want := g.AddEdgesAmong(nodes), ref.addEdgesAmong(nodes); got != want {
				t.Fatalf("%s seed %d: %s = %d, reference %d", shape, seed, step, got, want)
			}
		case op < 8:
			step = fmt.Sprintf("RemoveEdge(%d,%d)", u, v)
			if got, want := g.RemoveEdge(u, v), ref.removeEdge(u, v); got != want {
				t.Fatalf("%s seed %d: %s = %v, reference %v", shape, seed, step, got, want)
			}
		default:
			step = fmt.Sprintf("RemoveNode(%d)", u)
			if got, want := g.RemoveNode(u), ref.removeNode(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: %s = %#v, reference %#v", shape, seed, step, got, want)
			}
		}
		assertSameGraph(t, fmt.Sprintf("%s seed %d step %d %s", shape, seed, i, step), g, ref, span)
		peak = max(peak, g.MaxDegree())
	}
	if peak < minPeakD {
		t.Fatalf("%s seed %d: largest row reached %d entries, want at least %d", shape, seed, peak, minPeakD)
	}
	if got, want := g.Snapshot().Components(), ref.components(); !slices.Equal(got, want) {
		t.Fatalf("%s seed %d: Snapshot().Components() = %v, reference %v", shape, seed, got, want)
	}
	c := g.Clone()
	assertSameGraph(t, fmt.Sprintf("%s seed %d clone", shape, seed), c, ref, span)
	for u := 0; u < span; u += 3 {
		c.RemoveNode(u)
		c.AddEdge(u+1, u+2)
		c.AddEdgesAmong([]int{u + 1, u + 4, u + 7})
	}
	assertSameGraph(t, fmt.Sprintf("%s seed %d original after clone mutation", shape, seed), g, ref, span)
}
