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
// after every deletion batch), and AppendNeighbors is the scratch-buffer
// form of Neighbors for per-step repair scans. All BFS helpers mark
// visited nodes by stamping a reusable slice with the sweep's generation
// number, so starting a sweep is a counter bump rather than a reset or
// an allocation.
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
