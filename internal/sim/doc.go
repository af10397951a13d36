// Package sim provides the deterministic discrete-event simulation kernel
// used by every experiment in this repository.
//
// The kernel has two halves:
//
//   - Scheduler: a virtual clock plus an event queue — a hierarchical
//     timer wheel cascading into a small near-term heap, with a pooled
//     event arena so steady-state scheduling allocates nothing. Events
//     scheduled for the same instant fire in FIFO order (stable sequence
//     numbers), so a run is bit-reproducible given the same inputs.
//     The package tests keep the original container/heap queue as the
//     executable specification the wheel is differentially tested
//     against. The wheel's seven levels span the whole int64-nanosecond
//     horizon, so every event has a bucket. Three calls schedule work:
//     After (one-shot), Every (one recurring timer) and EveryBatched,
//     which multiplexes recurring per-entity Ticker duties that share a
//     period and subscription instant onto one wheel event,
//     output-identically to individual Every timers.
//   - RNG: a seeded PCG random stream with the helpers the experiments
//     need (permutations, weighted coins, exponential inter-arrival
//     draws for churn processes, byte strings). All randomness in a run
//     must flow through one RNG so that a single seed reproduces an
//     entire figure. SubstreamSeed derives named child seeds from a root
//     seed and a label; the experiment runner gives every task its own
//     substream this way (and the churn engine gives every attached
//     process one), which is what makes parallel experiment output
//     independent of worker count and scheduling order.
//
// The virtual epoch is 2015-01-14 UTC, the day the OnionBots paper was
// posted to arXiv; experiments only ever use relative durations, the
// epoch is cosmetic.
package sim
