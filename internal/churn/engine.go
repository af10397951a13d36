package churn

import (
	"fmt"
	"time"

	"onionbots/internal/sim"
)

// Target is a population a churn process can act on. The engine calls
// these from inside scheduler events, so implementations must be
// synchronous and must draw any randomness from the rng they are
// handed — that rng belongs to the calling process's substream, which
// is what keeps a swept churn axis deterministic at any parallelism.
type Target interface {
	// Size reports the current population.
	Size() int
	// Join admits one fresh member, reporting whether a member was
	// actually added (a target may not support joins, or may fail).
	Join(rng *sim.RNG) bool
	// Leave removes one uniformly random member, reporting whether a
	// member was actually removed (false on an empty population).
	Leave(rng *sim.RNG) bool
}

// Regional is a Target partitioned into regions, supporting the
// correlated regional takedowns of the mitigation literature (ISP
// cleanups, national CERT actions) where a whole slice of the
// population disappears at one instant.
type Regional interface {
	Target
	// Regions reports the partition count.
	Regions() int
	// TakedownRegion removes frac of region's current members (chosen
	// uniformly) and returns how many were removed.
	TakedownRegion(rng *sim.RNG, region int, frac float64) int
}

// Neighborhood is a Target with topology, supporting correlated
// takedowns of a random member together with everything within k
// overlay hops — the shape of a peer-list walking takedown.
type Neighborhood interface {
	Target
	// TakedownNeighborhood removes a uniformly random member and its
	// k-hop overlay neighborhood, returning how many were removed.
	TakedownNeighborhood(rng *sim.RNG, hops int) int
}

// Kind classifies a trace event. The first three are membership
// events (churn processes over a bot population); the rest are relay
// faults (fault processes over a RelayTarget).
type Kind uint8

// Trace event kinds.
const (
	KindJoin Kind = iota + 1
	KindLeave
	KindTakedown
	// KindCrash is one relay removed by a crash process.
	KindCrash
	// KindRestart is one crashed relay returning with a fresh identity.
	KindRestart
	// KindOutage is a correlated wave removing several relays at once.
	KindOutage
)

// kindNames are the Kind strings, which are also the trace wire form.
var kindNames = [...]string{
	KindJoin: "join", KindLeave: "leave", KindTakedown: "takedown",
	KindCrash: "crash", KindRestart: "restart", KindOutage: "outage",
}

// String names the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one entry of the trace: what happened, when (virtual time
// since sim.Epoch), under which process, and the population size right
// after.
type Event struct {
	At      time.Duration
	Process string
	Kind    Kind
	// Count is how many members the event affected (takedowns and
	// outage waves remove several at once).
	Count int
	// Size is the target population immediately after the event: live
	// members, or live relays for a RelayTarget.
	Size int
}

// Engine attaches processes to a running simulation: it owns the
// target, derives every attached process's RNG substream, and records
// the event trace. One engine drives one target; processes compose by
// attaching several to the same engine, and engines compose by sharing
// a scheduler (a bot population under churn over a relay network under
// faults).
//
// Determinism contract: the engine never draws randomness itself. Each
// process is seeded with sim.NewSubstream(seed, "churn/"+name), or
// "faults/"+name for the relay fault processes, at Attach time, so the
// full event trace is a pure function of (seed, attached process set,
// target state) — independent of sweep worker count or scheduling
// order, exactly like experiment task substreams.
type Engine struct {
	sched   *sim.Scheduler
	seed    uint64
	target  Target
	trace   []Event
	stopped bool
	names   map[string]struct{}
}

// NewEngine creates an engine driving target on sched. seed is the
// substream root for every attached process; experiments pass
// sim.SubstreamSeed(taskSeed, "<experiment>/churn") or
// "<experiment>/faults".
func NewEngine(sched *sim.Scheduler, seed uint64, target Target) *Engine {
	return &Engine{
		sched:  sched,
		seed:   seed,
		target: target,
		names:  map[string]struct{}{},
	}
}

// Target returns the population under perturbation.
func (e *Engine) Target() Target { return e.target }

// Attach starts a process: it validates the process against the
// target's capabilities, derives the process's RNG substream from the
// engine seed and the process name, and schedules its first event.
// Attaching two processes with the same name is rejected — they would
// share a substream, breaking independence.
func (e *Engine) Attach(p Process) error {
	ns := "churn"
	if _, ok := p.(faultProcess); ok {
		ns = "faults"
	}
	name := p.Name()
	if name == "" {
		return fmt.Errorf("%s: process has no name", ns)
	}
	if _, dup := e.names[name]; dup {
		return fmt.Errorf("%s: duplicate process name %q (set Label to disambiguate)", ns, name)
	}
	if err := p.validate(e.target); err != nil {
		return err
	}
	e.names[name] = struct{}{}
	p.attach(e, sim.NewSubstream(e.seed, ns+"/"+name))
	return nil
}

// Stop halts every attached process: events already on the scheduler
// still fire but become no-ops. Use it to freeze the target for
// post-run measurement.
func (e *Engine) Stop() { e.stopped = true }

// Trace returns a copy of the recorded event trace, in firing order.
func (e *Engine) Trace() []Event { return append([]Event(nil), e.trace...) }

// Counts tallies the membership events: members joined, left, and
// removed by takedowns.
func (e *Engine) Counts() (joined, left, takendown int) {
	c := e.tally()
	return c[KindJoin], c[KindLeave], c[KindTakedown]
}

// FaultCounts tallies the relay fault events: relays crashed, relays
// restarted, and relays removed by outage waves.
func (e *Engine) FaultCounts() (crashed, restarted, outaged int) {
	c := e.tally()
	return c[KindCrash], c[KindRestart], c[KindOutage]
}

// tally sums event counts per kind.
func (e *Engine) tally() (c [len(kindNames)]int) {
	for _, ev := range e.trace {
		c[ev.Kind] += ev.Count
	}
	return c
}

// record appends one trace event stamped with the current virtual time
// and population.
func (e *Engine) record(process string, kind Kind, count int) {
	e.trace = append(e.trace, Event{
		At:      e.sched.Elapsed(),
		Process: process,
		Kind:    kind,
		Count:   count,
		Size:    e.target.Size(),
	})
}
