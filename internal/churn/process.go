package churn

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"onionbots/internal/sim"
)

// Process is one perturbation process: a source of membership or relay
// fault events that the engine schedules on the simulation's timer
// wheel. Implementations live in this package; experiments construct
// them directly or from a Spec or FaultSpec.
type Process interface {
	// Name identifies the process: it tags trace events and names the
	// process's RNG substream, so it must be unique per engine.
	Name() string
	// validate checks the process parameters against the target's
	// capabilities before anything is scheduled.
	validate(t Target) error
	// attach schedules the process's first event. rng is the process's
	// private substream; all of the process's randomness (arrival
	// times, thinning, member or victim selection, restart identities)
	// must come from it.
	attach(e *Engine, rng *sim.RNG)
}

// Poisson is a memoryless join/leave process: joins arrive at JoinRate
// and leaves at LeaveRate (events per virtual hour), with exponential
// inter-arrival times. An optional rate modulation function turns the
// homogeneous process into a non-homogeneous one via thinning: events
// are generated at the peak rate and each is accepted with probability
// proportional to the modulated rate at its arrival instant, which is
// the standard construction and keeps the arrival stream a pure
// function of the process substream.
type Poisson struct {
	// JoinRate and LeaveRate are mean event rates in events per virtual
	// hour. Zero disables that half of the process; at least one must
	// be positive.
	JoinRate, LeaveRate float64
	// Modulate, when set, scales both rates at virtual time t (duration
	// since sim.Epoch). Values are clamped to [0, ModulateMax].
	Modulate func(t time.Duration) float64
	// ModulateMax bounds Modulate's range (default 1). The thinning
	// construction generates candidates at (JoinRate+LeaveRate) ×
	// ModulateMax, so a bound far above Modulate's true maximum only
	// wastes events, never breaks correctness.
	ModulateMax float64
	// Label overrides the process name ("poisson" by default) so
	// several Poisson processes can share one engine.
	Label string
}

// Name implements Process.
func (p *Poisson) Name() string { return cmp.Or(p.Label, "poisson") }

// MaxRate bounds the combined peak event rate (events per virtual
// hour) a process accepts. Beyond this the exponential inter-arrival
// truncates toward zero virtual nanoseconds and a run degenerates into
// grinding through same-instant events — a typo in a sweep spec should
// fail validation, not hang the CLI.
const MaxRate = 1e6

func (p *Poisson) validate(Target) error {
	if p.JoinRate < 0 || p.LeaveRate < 0 {
		return fmt.Errorf("churn: %s: negative rate (join=%g leave=%g)", p.Name(), p.JoinRate, p.LeaveRate)
	}
	if p.JoinRate+p.LeaveRate == 0 {
		return fmt.Errorf("churn: %s: both rates zero", p.Name())
	}
	if p.Modulate != nil && p.ModulateMax < 0 {
		return fmt.Errorf("churn: %s: negative ModulateMax", p.Name())
	}
	modMax := p.ModulateMax
	if modMax <= 0 || p.Modulate == nil {
		modMax = 1
	}
	if peak := (p.JoinRate + p.LeaveRate) * modMax; peak > MaxRate {
		return fmt.Errorf("churn: %s: peak rate %g events/hour exceeds the %g cap", p.Name(), peak, float64(MaxRate))
	}
	return nil
}

func (p *Poisson) attach(e *Engine, rng *sim.RNG) {
	modMax := p.ModulateMax
	if modMax <= 0 {
		modMax = 1
	}
	if p.Modulate == nil {
		modMax = 1
	}
	peak := (p.JoinRate + p.LeaveRate) * modMax
	name := p.Name()
	var step func()
	schedule := func() {
		// Exponential inter-arrival at the peak rate; thinning below
		// discards candidates in proportion to the modulation deficit.
		d := time.Duration(rng.ExpFloat64() / peak * float64(time.Hour))
		e.sched.After(d, step)
	}
	step = func() {
		if e.stopped {
			return
		}
		m := 1.0
		if p.Modulate != nil {
			m = p.Modulate(e.sched.Elapsed())
			if m < 0 {
				m = 0
			}
			if m > modMax {
				m = modMax
			}
		}
		// One uniform draw splits [0, peak) into the accepted join
		// band, the accepted leave band, and the thinned remainder.
		u := rng.Float64() * peak
		switch {
		case u < p.JoinRate*m:
			if e.target.Join(rng) {
				e.record(name, KindJoin, 1)
			}
		case u < (p.JoinRate+p.LeaveRate)*m:
			if e.target.Leave(rng) {
				e.record(name, KindLeave, 1)
			}
		}
		schedule()
	}
	schedule()
}

// Diurnal is a Poisson join/leave process whose rates follow a
// sinusoidal day/night cycle:
//
//	rate(t) = base × (1 + Amplitude·sin(2πt/Period))
//
// with t measured from sim.Epoch. Amplitude 1 silences the trough
// entirely; for an unmodulated process use Poisson directly.
type Diurnal struct {
	// JoinRate and LeaveRate are the mean rates in events per virtual
	// hour (the sinusoid averages out over a full period).
	JoinRate, LeaveRate float64
	// Amplitude is the modulation swing, required in (0, 1]. Zero is
	// rejected rather than defaulted: a zero-amplitude "diurnal"
	// process is an unmodulated Poisson process wearing a different
	// label, and silently substituting a default would make an
	// amplitude-0 sweep point run as something it does not say.
	Amplitude float64
	// Period is the cycle length. Default 24 virtual hours.
	Period time.Duration
	// Label overrides the process name ("diurnal" by default).
	Label string
}

// Name implements Process.
func (d *Diurnal) Name() string { return cmp.Or(d.Label, "diurnal") }

func (d *Diurnal) period() time.Duration {
	if d.Period <= 0 {
		return 24 * time.Hour
	}
	return d.Period
}

func (d *Diurnal) validate(t Target) error {
	if a := d.Amplitude; a <= 0 || a > 1 {
		return fmt.Errorf("churn: %s: amplitude %g outside (0, 1] (use poisson for an unmodulated process)", d.Name(), a)
	}
	// Validate with the modulation bound attach will actually use, so
	// the rate cap applies to the sinusoid's peak, not the mean.
	return (&Poisson{
		JoinRate: d.JoinRate, LeaveRate: d.LeaveRate, Label: d.Name(),
		Modulate: func(time.Duration) float64 { return 1 }, ModulateMax: 1 + d.Amplitude,
	}).validate(t)
}

func (d *Diurnal) attach(e *Engine, rng *sim.RNG) {
	amp := d.Amplitude
	period := float64(d.period())
	p := &Poisson{
		JoinRate:  d.JoinRate,
		LeaveRate: d.LeaveRate,
		Label:     d.Name(),
		Modulate: func(t time.Duration) float64 {
			return 1 + amp*math.Sin(2*math.Pi*float64(t)/period)
		},
		ModulateMax: 1 + amp,
	}
	p.attach(e, rng)
}

// Takedown removes a correlated set of members at one scheduled
// instant: either a fraction of one region (the target must implement
// Regional) or a random member's k-hop overlay neighborhood (the
// target must implement Neighborhood). It models the mitigation
// studies' coordinated actions, as opposed to the independent
// departures of Poisson/Diurnal.
type Takedown struct {
	// After is how long after Attach the takedown fires.
	After time.Duration
	// Frac is the fraction of the chosen region to remove, in (0, 1].
	// Ignored when Hops is set.
	Frac float64
	// Region selects the region; negative means a uniformly random
	// one. Ignored when Hops is set.
	Region int
	// Hops, when positive, removes a random member and everything
	// within Hops overlay hops instead of a region.
	Hops int
	// Label overrides the process name ("takedown" by default).
	Label string
}

// Name implements Process.
func (t *Takedown) Name() string { return cmp.Or(t.Label, "takedown") }

func (t *Takedown) validate(target Target) error {
	if t.After < 0 {
		return fmt.Errorf("churn: %s: negative delay", t.Name())
	}
	if t.Hops > 0 {
		if _, ok := target.(Neighborhood); !ok {
			return fmt.Errorf("churn: %s: target %T does not support neighborhood takedowns", t.Name(), target)
		}
		return nil
	}
	if t.Frac <= 0 || t.Frac > 1 {
		return fmt.Errorf("churn: %s: fraction %g outside (0, 1]", t.Name(), t.Frac)
	}
	rt, ok := target.(Regional)
	if !ok {
		return fmt.Errorf("churn: %s: target %T does not support regional takedowns", t.Name(), target)
	}
	if rt.Regions() < 1 {
		return fmt.Errorf("churn: %s: target has no regions configured", t.Name())
	}
	if t.Region >= rt.Regions() {
		return fmt.Errorf("churn: %s: region %d outside [0, %d)", t.Name(), t.Region, rt.Regions())
	}
	return nil
}

func (t *Takedown) attach(e *Engine, rng *sim.RNG) {
	name := t.Name()
	e.sched.After(t.After, func() {
		if e.stopped {
			return
		}
		removed := 0
		if t.Hops > 0 {
			removed = e.target.(Neighborhood).TakedownNeighborhood(rng, t.Hops)
		} else {
			rt := e.target.(Regional)
			region := t.Region
			if region < 0 {
				region = rng.Intn(rt.Regions())
			}
			removed = rt.TakedownRegion(rng, region, t.Frac)
		}
		if removed > 0 {
			e.record(name, KindTakedown, removed)
		}
	})
}
