// Package graph implements the undirected-graph substrate for the
// OnionBots topology experiments: a mutable adjacency structure, a random
// k-regular generator (the paper's Section V workload), and the metrics
// reported in Figures 4-6 — closeness centrality, degree centrality,
// diameter, and connected components.
//
// Mutation (AddEdge/RemoveNode/...) happens on Graph. Measurement happens
// on an Indexed snapshot: a compressed adjacency form with dense integer
// ids that makes repeated BFS cheap. Experiments mutate, snapshot,
// measure, and repeat. Two exceptions to the snapshot rule keep hot
// loops allocation-free: Graph.Connected answers "still one component?"
// straight off the adjacency rows (the Fig 6 partition scan asks it
// after every deletion batch), and Row hands out a node's neighbor row
// itself for read-only scans (DDSR's prune and floor picks). All BFS
// helpers mark visited nodes by stamping a reusable slice with the
// sweep's generation number, so starting a sweep is a counter bump
// rather than a reset or an allocation. The distance BFS behind
// closeness and diameter walks one level at a time and stamps each node
// with its level, so it keeps no distance array, and it expands each
// level top-down or bottom-up, whichever checks fewer edges.
//
// AddEdgesAmong, the clique insertion of DDSR repair, sorts its members
// once and merges them into each member's row in one back-to-front
// pass, so a d-clique costs O(d + row) per row. Every scratch slice
// belongs to the Graph or snapshot that uses it; the package keeps no
// state of its own, so concurrent experiments on distinct graphs never
// share anything.
//
// Storage: Graph keeps one sorted []int32 neighbor row per node id plus
// a presence bitmap, so ids must be non-negative (AddNode panics
// otherwise) and should be dense — every generator and overlay in this
// repository numbers its nodes 0, 1, 2, ... A sparse id is legal but
// sizes the storage by the largest id ever added.
//
// Determinism: rows are kept sorted, so every iteration-order-sensitive
// helper (Nodes, Neighbors, RemoveNode's returned neighbor list,
// Snapshot rows) is a pure function of the graph, and callers that
// combine them with a seeded RNG get reproducible runs.
package graph
