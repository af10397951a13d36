package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/core"
	"onionbots/internal/ddsr"
	"onionbots/internal/experiment"
	"onionbots/internal/sim"
)

// A workload builds one iteration's inputs from an input seed (its
// set-up, timed as setup_s) and returns the iteration that runs over
// them. inputs is how many input seeds a run cycles through: a workload
// whose cost depends on the seed averages over several. replay, when
// set, is benchmark-side extra work the traced run does after the
// profiled iteration to time a layer from outside.
type workload struct {
	name   string
	inputs int
	setup  func(seed uint64, tr *tracer) (iteration, error)
	replay func(seed uint64, tr *tracer) error
	phases []phase
}

// iteration is one measured pass. A nil tracer means untraced.
type iteration func(tr *tracer) (outcome, error)

// outcome is what an iteration reports: the digest of its outputs,
// operations attempted and failed, and the wall time of named phases.
type outcome struct {
	digest    string
	attempted int
	failed    int
	phases    map[string]time.Duration
}

// phase turns a phase's wall time into a throughput metric: work units
// per second.
type phase struct {
	name, metric, unit string
	work               float64
}

// Protocol-churn scale: the 10^4-bot, 2-hour scenario of
// TestProtocolChurnTenThousandBots scaled down 4x in population and
// virtual time together, keeping its rates and the mid-run takedown.
const (
	churnBots     = 2500
	churnRelays   = 120
	churnDuration = 30 * time.Minute
	churnRegions  = 8
)

// Overlay-takedown scale: the fig5+fig6 quick grid and the n=10^5
// Fig 5 point.
const (
	gridSeeds = 3
	pointN    = 100000
	overlayK  = 10
)

var workloads = []*workload{
	// Hashcash solve lengths and the churn-soap population vary by
	// seed: one seed's quick run can cost 40% more time and hold 3x
	// the live heap of another's.
	{name: "repro-quick", inputs: 4, setup: setupReproQuick},
	// The grid already spans three seeds, and graph work barely
	// depends on the seed.
	{name: "overlay-takedown", inputs: 1, setup: setupOverlayTakedown, replay: replayFig5},
	{
		// Poisson churn draws a different number of events per seed.
		name: "protocol-churn", inputs: 3, setup: setupProtocolChurn,
		phases: []phase{
			{"grow", "joins_per_s", "1/s", churnBots},
			{"churn", "churn_sim_h_per_s", "h/s", churnDuration.Hours()},
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func hexDigest(parts ...[]byte) string {
	h := sha256.New()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte("\n"))
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runTasks runs tasks on one runner worker, adding each task's wall
// time to the per-layer metric span(task). It reports how many tasks
// failed and the first failure.
func runTasks(tasks []experiment.Task, tr *tracer, span func(experiment.Task) string) ([]experiment.TaskResult, int, error) {
	runner := &experiment.Runner{Parallel: 1}
	trs, err := runner.Run(tasks)
	if err != nil {
		return nil, len(tasks), err
	}
	failed := 0
	for _, r := range trs {
		tr.add(span(r.Task), r.Elapsed.Seconds())
		if r.Err != nil {
			if failed == 0 {
				err = fmt.Errorf("%s: %w", r.Task.Label, r.Err)
			}
			failed++
		}
	}
	return trs, failed, err
}

// setupReproQuick builds exactly the task list `onionsim -exp all
// -quick -seed S` runs.
func setupReproQuick(seed uint64, _ *tracer) (iteration, error) {
	ids := experiment.IDs()
	tasks := make([]experiment.Task, 0, len(ids))
	for _, id := range ids {
		tasks = append(tasks, experiment.Task{Label: id, Experiment: id, Params: experiment.Params{Quick: true, Seed: seed}})
	}
	return func(tr *tracer) (outcome, error) {
		out := outcome{attempted: len(tasks)}
		trs, failed, err := runTasks(tasks, tr, func(t experiment.Task) string { return "task_s." + t.Label })
		out.failed = failed
		if err != nil {
			return out, err
		}
		var results []*experiment.Result
		for _, r := range trs {
			results = append(results, r.Results...)
		}
		for _, r := range results {
			if r.ID == "table1" {
				if err := experiment.VerifyTable1Shape(r); err != nil {
					out.failed++
					return out, err
				}
			}
		}
		doc, err := experiment.ResultsJSON(results)
		if err != nil {
			return out, err
		}
		out.digest = hexDigest(doc)
		return out, nil
	}, nil
}

// overlaySweeps are the fig5+fig6 quick grid (the shape of
// examples/sweep/fig5-fig6-quick.json) and the n=10^5 Fig 5 point
// (examples/sweep/fig5-100k.json), on seeds drawn from the workload
// seed. At seed 1 they are exactly those two files.
func overlaySweeps(seed uint64) (grid, point *experiment.Sweep) {
	seeds := make([]uint64, gridSeeds)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	grid = &experiment.Sweep{Name: "fig5-fig6-quick", Experiments: []string{"fig5", "fig6"}, Quick: true, Ns: []int{1000, 2000, 4000}, Seeds: seeds}
	point = &experiment.Sweep{Name: "fig5-100k", Experiments: []string{"fig5"}, Quick: true, Ns: []int{pointN}, Seeds: []uint64{seed}}
	return grid, point
}

func setupOverlayTakedown(seed uint64, _ *tracer) (iteration, error) {
	grid, point := overlaySweeps(seed)
	gridTasks, err := grid.Tasks()
	if err != nil {
		return nil, err
	}
	pointTasks, err := point.Tasks()
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) (outcome, error) {
		out := outcome{attempted: len(gridTasks) + len(pointTasks)}
		var docs [][]byte
		for _, sw := range []struct {
			spec  *experiment.Sweep
			tasks []experiment.Task
			span  func(experiment.Task) string
		}{
			{grid, gridTasks, func(t experiment.Task) string { return "task_s." + t.Experiment }},
			{point, pointTasks, func(experiment.Task) string { return "task_s.fig5_n1e5" }},
		} {
			trs, failed, err := runTasks(sw.tasks, tr, sw.span)
			out.failed += failed
			if err != nil {
				return out, err
			}
			doc, err := experiment.SweepJSON(sw.spec, trs, sw.spec.Aggregate(trs))
			if err != nil {
				return out, err
			}
			docs = append(docs, doc)
		}
		out.digest = hexDigest(docs...)
		return out, nil
	}, nil
}

// replayFig5 replays the DDSR half of the Fig 5 deletion loop at
// n=10^5 from the benchmark's side, timing every RemoveNode and each
// measure point's Snapshot, Components and DiameterApprox.
func replayFig5(seed uint64, tr *tracer) error {
	o, err := ddsr.NewRegular(pointN, overlayK, ddsr.DefaultConfig(overlayK), sim.NewSubstream(seed, "replay/overlay"))
	if err != nil {
		return err
	}
	perm := sim.NewSubstream(seed, "replay/perm").Perm(pointN)
	mrng := sim.NewSubstream(seed, "replay/measure")
	every := pointN / 10
	measure := func() {
		t0 := time.Now()
		ix := o.Graph().Snapshot()
		t1 := time.Now()
		ix.Components()
		t2 := time.Now()
		_, _ = ix.DiameterApprox(4, mrng)
		t3 := time.Now()
		tr.span("graph.snapshot", t1.Sub(t0))
		tr.span("graph.components", t2.Sub(t1))
		tr.span("graph.diameter", t3.Sub(t2))
	}
	measure()
	limit := pointN - 3
	for i := 0; i < limit; i++ {
		t0 := time.Now()
		o.RemoveNode(perm[i])
		tr.span("ddsr.remove", time.Since(t0))
		if (i+1)%every == 0 || i+1 == limit {
			measure()
		}
	}
	st := o.Stats()
	tr.add("ddsr.repair_edges", float64(st.RepairEdgesAdded))
	tr.add("ddsr.pruned_edges", float64(st.EdgesPruned))
	return nil
}

// setupProtocolChurn bootstraps the Tor network and botmaster and warms
// the identity pool for the grow phase.
func setupProtocolChurn(seed uint64, tr *tracer) (iteration, error) {
	bn, err := core.NewBotNet(sim.SubstreamSeed(seed, "protocol-churn/botnet"), churnRelays, core.BotConfig{
		DMin: 2, DMax: 6,
		PingInterval: 30 * time.Minute,
		NoNInterval:  2 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	bn.Master.HotlistSize = 5
	bn.SettleTime = 200 * time.Millisecond
	t0 := time.Now()
	bn.WarmIdentities(churnBots)
	tr.add("botcrypto.warm_s", time.Since(t0).Seconds())
	engSeed := sim.SubstreamSeed(seed, "protocol-churn/churn")
	return func(tr *tracer) (outcome, error) {
		return runProtocolChurn(bn, engSeed, tr)
	}, nil
}

// runProtocolChurn grows the botnet one infection at a time (InfectFrom
// then RunFor(SettleTime), which is what BotNet.Grow does) and then
// drives Poisson churn and a regional takedown through the churn
// engine.
func runProtocolChurn(bn *core.BotNet, engSeed uint64, tr *tracer) (outcome, error) {
	out := outcome{phases: map[string]time.Duration{}}
	events := 0
	t0 := time.Now()
	for i := 0; i < churnBots; i++ {
		j0 := time.Now()
		_, err := bn.InfectFrom(nil, bn.RNG)
		j1 := time.Now()
		events += bn.Sched.RunFor(bn.SettleTime)
		tr.span("core.join", j1.Sub(j0))
		tr.span("sim.settle", time.Since(j1))
		out.attempted++
		if err != nil {
			out.failed++
		}
	}
	t1 := time.Now()
	out.phases["grow"] = t1.Sub(t0)

	target := &timedTarget{inner: churn.NewBotNetTarget(bn, nil, churnRegions), tr: tr}
	eng := churn.NewEngine(bn.Sched, engSeed, target)
	if err := eng.Attach(&churn.Poisson{JoinRate: 300, LeaveRate: 300}); err != nil {
		return out, err
	}
	if err := eng.Attach(&churn.Takedown{After: churnDuration / 2, Frac: 0.5, Region: -1}); err != nil {
		return out, err
	}
	events += bn.Sched.RunFor(churnDuration)
	eng.Stop()
	out.phases["churn"] = time.Since(t1)
	out.attempted += target.joins
	out.failed += target.joinFailures

	joined, left, takendown := eng.Counts()
	pool := bn.IdentityPoolStats()
	net := bn.Net.Stats()
	rallyFailures := 0
	for _, b := range bn.Bots() {
		rallyFailures += b.Stats().RallyFailures
	}
	trace, err := churn.EncodeTrace(eng.Trace())
	if err != nil {
		return out, err
	}
	state := fmt.Sprintf("joined=%d left=%d takendown=%d alive=%d staleness=%v pool=%+v net=%+v events=%d rally_failures=%d",
		joined, left, takendown, bn.AliveCount(), bn.HotlistStaleness(), pool, net, events, rallyFailures)
	out.digest = hexDigest(trace, []byte(state))

	tr.add("churn.joined", float64(joined))
	tr.add("churn.left", float64(left))
	tr.add("churn.takendown", float64(takendown))
	tr.add("sim.events", float64(events))
	tr.add("tor.circuits_built", float64(net.CircuitsBuilt))
	tr.add("tor.cells_switched", float64(net.CellsSwitched))
	tr.add("tor.dial_failures", float64(net.DialFailures))
	tr.add("tor.dial_retries", float64(net.DialRetries))
	tr.add("core.rally_failures", float64(rallyFailures))
	tr.add("core.pool_hit_frac", float64(pool.Served)/float64(max(churnBots+joined, 1)))
	tr.add("core.pool_waste_frac", float64(pool.Derived-pool.Served)/float64(max(pool.Derived, 1)))
	return out, nil
}

// timedTarget wraps the churn engine's target so joins, leaves and
// takedowns are counted and timed from outside the engine.
type timedTarget struct {
	inner        *churn.BotNetTarget
	tr           *tracer
	joins        int
	joinFailures int
}

var _ churn.Regional = (*timedTarget)(nil)

func (t *timedTarget) Size() int    { return t.inner.Size() }
func (t *timedTarget) Regions() int { return t.inner.Regions() }

func (t *timedTarget) Join(rng *sim.RNG) bool {
	t0 := time.Now()
	ok := t.inner.Join(rng)
	t.tr.span("churn.join", time.Since(t0))
	t.joins++
	if !ok {
		t.joinFailures++
	}
	return ok
}

func (t *timedTarget) Leave(rng *sim.RNG) bool {
	t0 := time.Now()
	ok := t.inner.Leave(rng)
	t.tr.span("churn.leave", time.Since(t0))
	return ok
}

func (t *timedTarget) TakedownRegion(rng *sim.RNG, region int, frac float64) int {
	t0 := time.Now()
	n := t.inner.TakedownRegion(rng, region, frac)
	t.tr.add("churn.takedown_ms", float64(time.Since(t0))/float64(time.Millisecond))
	return n
}

// tracer keeps spans and seed-determined values in memory for the
// traced iteration. Every method is a no-op on a nil tracer, which is
// how untraced iterations run.
type tracer struct {
	spans  map[string][]time.Duration
	values map[string]float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]time.Duration{}, values: map[string]float64{}}
}

// span records one duration of the span named stem.
func (t *tracer) span(stem string, d time.Duration) {
	if t != nil {
		t.spans[stem] = append(t.spans[stem], d)
	}
}

// add accumulates v into the per-layer metric name.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.values[name] += v
	}
}

// metrics returns the accumulated values plus every spanMetrics
// quantile of the recorded spans.
func (t *tracer) metrics() map[string]float64 {
	m := make(map[string]float64, len(t.values)+len(spanMetrics))
	for name, v := range t.values {
		m[name] = v
	}
	for _, sm := range spanMetrics {
		ds := t.spans[sm.span]
		if len(ds) == 0 {
			continue
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(sm.unit)
		}
		sort.Float64s(xs)
		m[sm.name] = quantile(xs, sm.q)
	}
	return m
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
