package churn

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"onionbots/internal/jsonx"
	"onionbots/internal/sim"
)

// The engine's trace is a first-class artifact: EncodeTrace/ParseTrace
// round-trip it through JSON, and Replay plays a recorded trace back
// against a fresh target as a scheduled membership script — closing the
// loop the takedown literature works in, where a mitigation is
// evaluated by replaying how a real population actually moved while the
// defender acted. Record once (a measured run, or a trace transcribed
// from a real dataset), replay under any experiment.

// eventJSON is the wire form of one trace event. Times are virtual
// seconds since the trace origin, quantized to the microsecond so that
// encode/parse/encode is a byte-exact fixed point; kinds are the Kind
// strings.
type eventJSON struct {
	AtS     float64 `json:"at_s"`
	Process string  `json:"process,omitempty"`
	Kind    string  `json:"kind"`
	Count   int     `json:"count"`
	Size    int     `json:"size,omitempty"`
}

// EncodeTrace renders a trace as indented JSON (one event per entry,
// times in virtual seconds), suitable for committing next to a sweep
// spec.
func EncodeTrace(events []Event) ([]byte, error) {
	out := make([]eventJSON, 0, len(events))
	for _, ev := range events {
		out = append(out, eventJSON{
			AtS:     math.Round(ev.At.Seconds()*1e6) / 1e6,
			Process: ev.Process,
			Kind:    ev.Kind.String(),
			Count:   ev.Count,
			Size:    ev.Size,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// ParseTrace decodes a JSON trace, validating kinds, counts, and time
// ordering. Every Kind string is accepted, so any engine trace —
// membership or relay faults — round-trips through EncodeTrace.
// Unknown fields and trailing content are rejected like every other
// spec format in the tree.
func ParseTrace(data []byte) ([]Event, error) {
	var raw []eventJSON
	if err := jsonx.DecodeStrict(data, &raw); err != nil {
		return nil, fmt.Errorf("parse churn trace: %w", err)
	}
	events := make([]Event, 0, len(raw))
	last := time.Duration(-1)
	for i, ej := range raw {
		kind := parseKind(ej.Kind)
		if kind == 0 {
			return nil, fmt.Errorf("parse churn trace: event %d: unknown kind %q", i, ej.Kind)
		}
		if ej.AtS < 0 {
			return nil, fmt.Errorf("parse churn trace: event %d: negative time %gs", i, ej.AtS)
		}
		at := time.Duration(math.Round(ej.AtS*1e6)) * time.Microsecond
		if at < last {
			return nil, fmt.Errorf("parse churn trace: event %d: time runs backwards (%v after %v)", i, at, last)
		}
		last = at
		count := ej.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return nil, fmt.Errorf("parse churn trace: event %d: negative count %d", i, ej.Count)
		}
		events = append(events, Event{At: at, Process: ej.Process, Kind: kind, Count: count, Size: ej.Size})
	}
	return events, nil
}

// parseKind inverts Kind.String, returning 0 for an unknown name.
func parseKind(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return 0
}

// LoadTrace reads and parses a trace file.
func LoadTrace(path string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	events, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// Replay is a churn process that plays a recorded event trace back as a
// membership schedule: each event fires at its recorded offset after
// Attach (trace times are offsets from the recording's own attach
// instant, so a replay reproduces the recorded timeline shift-for-
// shift). Joins and leaves replay one member at a time; a takedown
// event removes Count uniformly random members at its instant — the
// trace records how many a coordinated action removed, not which
// (identities do not transfer between populations), which is exactly
// the shape a takedown schedule transcribed from a real dataset has.
//
// Determinism: member selection draws from the process substream like
// every other process, so a replayed schedule composes with live
// processes on the same engine without perturbing their streams.
type Replay struct {
	// Events is the schedule, time-ordered (as ParseTrace guarantees).
	Events []Event
	// Label overrides the process name ("replay" by default).
	Label string
}

// Name implements Process.
func (r *Replay) Name() string { return cmp.Or(r.Label, "replay") }

func (r *Replay) validate(Target) error {
	last := time.Duration(-1)
	for i, ev := range r.Events {
		if ev.At < 0 {
			return fmt.Errorf("churn: %s: event %d at negative offset %v", r.Name(), i, ev.At)
		}
		if ev.At < last {
			return fmt.Errorf("churn: %s: event %d out of order (%v after %v)", r.Name(), i, ev.At, last)
		}
		last = ev.At
		if ev.Count < 1 {
			return fmt.Errorf("churn: %s: event %d has count %d", r.Name(), i, ev.Count)
		}
		switch ev.Kind {
		case KindJoin, KindLeave, KindTakedown:
		default:
			return fmt.Errorf("churn: %s: event %d has kind %v; replay plays back only join, leave and takedown events", r.Name(), i, ev.Kind)
		}
	}
	return nil
}

func (r *Replay) attach(e *Engine, rng *sim.RNG) {
	name := r.Name()
	for _, ev := range r.Events {
		ev := ev
		e.sched.After(ev.At, func() {
			if e.stopped {
				return
			}
			step := e.target.Leave
			if ev.Kind == KindJoin {
				step = e.target.Join
			}
			done := 0
			for i := 0; i < ev.Count; i++ {
				if step(rng) {
					done++
				}
			}
			if done > 0 {
				e.record(name, ev.Kind, done)
			}
		})
	}
}
