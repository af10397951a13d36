// Package experiment regenerates every table and figure of the
// OnionBots paper from this repository's implementations, and provides
// the engine that runs them — singly, in parallel, or swept over
// parameter grids.
//
// # Registry
//
// Each experiment registers itself from init under a stable ID (fig3,
// fig4, ..., table1, probing, hsdir, pow, ablation, churn-repair,
// churn-hotlist, churn-soap, relay-outage, hsdir-outage) with a
// Definition: a title and a run function taking the generic Params
// (quick preset, seed, and optional N/K/Frac/Churn/Soap/Faults
// overrides, which each experiment maps onto its own config knobs).
// Lookup and IDs expose the catalogue; cmd/onionsim is a thin shell
// over it, and docs/EXPERIMENTS.md is the prose handbook (a
// completeness test keeps it in sync with the registry).
//
// Every runner still has its direct Go API — a config struct whose
// Default*(quick) constructor offers the paper's full parameters
// (n=5000 and 15000 node graphs, 1000-15000 size sweeps) and a
// scaled-down quick preset — and returns Results: named series of
// (x, y) points and/or table rows plus free-form notes, rendering to
// ASCII, CSV, or JSON.
//
// # Runner
//
// Runner executes a set of labelled tasks across a worker pool. Before
// a task runs, its seed is replaced by sim.SubstreamSeed(seed, label),
// so every task owns an independent random stream that is a pure
// function of the root seed and the task's name. Combined with the
// rule that experiments never read wall-clock time (quick-mode probing
// assumes NominalKeyRate for exactly this reason), rendered output is
// byte-identical at any parallelism and any scheduling order; results
// come back in task order.
//
// # Sweeps
//
// Sweep is a JSON scenario spec: experiments crossed with grids of
// sizes, degrees, takedown fractions, churn scenarios (internal/churn
// specs — Poisson join/leave, diurnal cycles, correlated takedowns,
// trace replays), SOAP campaign configurations (internal/soap specs —
// clone budgets, wave cadence, proof-of-work policy), infrastructure
// fault planes (churn.FaultSpec — relay crash/restart rates, HSDir
// outage waves, intro-failure probability, client retry
// budgets), seeds, and trial
// replications. Tasks expands the grid into labelled
// tasks for the Runner, and Aggregate folds the outcomes into one
// table-shaped Result: first/last/min/max per produced series, mean ±
// sample stddev over trials per grid point when the spec replicates,
// and one row per declarative Threshold rule — "first value on a
// swept axis where a series statistic crosses a bound" — so a grid
// answers its question directly ("λ at first partition"). See
// examples/sweep for ready-to-run specs and docs/EXPERIMENTS.md for
// the schema walkthrough.
//
// README.md records how to reproduce each figure on the command line;
// bench_test.go wraps each runner in a benchmark.
package experiment
