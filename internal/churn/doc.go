// Package churn is the simulator's one perturbation engine:
// deterministic processes that remove, add, and crash members of a
// running population on the simulation's virtual clock. The paper
// evaluates resilience under one-shot deletion (Figs 5/6); real botnet
// populations churn continuously, the mitigation literature (SOAP
// campaigns, regional cleanups) acts on exactly those dynamics, and the
// Tor substrate under the overlay fails on its own schedule — this
// package makes all of it a first-class experiment axis.
//
// # Model
//
// An Engine binds a Target to the scheduler and records one Event
// trace. Processes attach to the engine and compose freely; engines
// compose by sharing a scheduler. Targets come in two families.
//
// Membership targets are bot populations: OverlayTarget drives a
// ddsr.Maintainer (the graph-level DDSR overlay or the no-repair
// Normal baseline, with joins under the policy via ddsr.Joiner), and
// BotNetTarget drives a protocol-level core.BotNet (joins are real
// infections, leaves are takedowns; pre-derived key material from
// core.IdentityPool sustains 10^4-bot populations). Their processes:
//
//   - Poisson: memoryless join/leave at fixed mean rates, exponential
//     inter-arrival times drawn from the process's RNG substream.
//   - Diurnal: the same process under sinusoidal day/night rate
//     modulation, realized by thinning so arrivals stay a pure
//     function of the substream.
//   - Takedown: a correlated mass removal at one scheduled instant —
//     a fraction of one region, or a random member's k-hop overlay
//     neighborhood.
//   - Replay: a recorded event trace (EncodeTrace/ParseTrace, the
//     engine's own JSON format) played back as the membership
//     schedule, so mitigations can be evaluated against how a real
//     population actually moved.
//
// The relay target, RelayTarget, is a simulated tor.Network: its
// population is the live relay count, and a leave crashes a random
// non-directory relay. Its processes are the infrastructure fault
// plane:
//
//   - RelayCrash: Poisson relay crashes with exponential restarts.
//   - HSDirOutage: a correlated wave removing a contiguous arc of the
//     HSDir ring, optionally centered on one service's directories.
//
// # Determinism
//
// Every process draws all of its randomness — arrival times, thinning,
// member and victim selection — from a private substream derived at
// Attach time. Membership processes use sim.NewSubstream(engineSeed,
// "churn/"+name); relay fault processes use the "faults/"+name
// namespace. Events execute on the single-threaded scheduler in
// (time, sequence) order. The trace is therefore a pure function of
// (seed, process set, initial target state): a swept churn or faults
// axis is byte-identical at any -parallel value, the same contract the
// experiment runner gives task seeds.
//
// # Specs
//
// Spec is the declarative JSON form of one membership process
// ({"process": "poisson", "leave": 8}, or {"process": "replay",
// "trace_file": "..."}) used by experiment.Params.Churn and the sweep
// schema's "churn" axis. FaultSpec is the fault plane's ({"crash_rate":
// 6, "restart_h": 1}), bundled with the client retry budget, used by
// experiment.Params.Faults and the "faults" axis. Each renders a Label
// into task labels so distinct specs land on distinct substreams. See
// docs/EXPERIMENTS.md for the end-to-end walkthrough of posing a churn
// question as a sweep.
package churn
