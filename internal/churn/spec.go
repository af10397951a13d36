package churn

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"time"

	"onionbots/internal/jsonx"
)

// Spec is the declarative, JSON-serializable form of a churn process —
// what experiment parameters carry and what a sweep's "churn" axis
// lists. Build turns it into a live Process; Label renders it as a
// compact deterministic string for task labels (and therefore RNG
// substream names), so two distinct specs always sweep onto distinct
// random streams.
//
//	{"process": "poisson", "join": 4, "leave": 4}
//	{"process": "diurnal", "join": 2, "leave": 2, "amplitude": 0.8, "period_h": 24}
//	{"process": "takedown", "frac": 0.5, "regions": 4, "at_h": 6}
//	{"process": "takedown", "hops": 2, "at_h": 6}
//	{"process": "replay", "trace_file": "examples/traces/takedown-wave.json"}
type Spec struct {
	// Process selects the process type: "poisson", "diurnal",
	// "takedown", or "replay".
	Process string `json:"process"`
	// Join and Leave are mean event rates in events per virtual hour
	// (poisson, diurnal).
	Join  float64 `json:"join,omitempty"`
	Leave float64 `json:"leave,omitempty"`
	// Amplitude is the diurnal modulation swing, required in (0, 1]
	// for diurnal specs (zero would be an unmodulated process — write
	// it as poisson instead).
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodH is the diurnal cycle length in virtual hours (default 24).
	PeriodH float64 `json:"period_h,omitempty"`
	// Regions is the partition count for regional takedowns; targets
	// built from a spec adopt it.
	Regions int `json:"regions,omitempty"`
	// Frac is the fraction of the chosen region a takedown removes.
	Frac float64 `json:"frac,omitempty"`
	// AtH is the takedown instant, virtual hours after attach.
	AtH float64 `json:"at_h,omitempty"`
	// Hops switches the takedown to k-hop neighborhood mode.
	Hops int `json:"hops,omitempty"`
	// TraceFile names a recorded event trace (the engine's own JSON
	// trace format, see EncodeTrace) that a "replay" process plays back
	// as the membership schedule — the lever for evaluating mitigations
	// against how a real population actually moved.
	TraceFile string `json:"trace_file,omitempty"`
}

// ParseSpec decodes and validates a JSON spec. Unknown fields and
// trailing content are rejected, mirroring sweep parsing, so a typo
// ("rate" for "leave") cannot silently disable an axis.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := jsonx.DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("parse churn spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec without building it.
func (s Spec) Validate() error {
	_, err := s.build()
	return err
}

// Build constructs the live process the spec describes.
func (s Spec) Build() (Process, error) { return s.build() }

func (s Spec) build() (Process, error) {
	switch s.Process {
	case "poisson":
		p := &Poisson{JoinRate: s.Join, LeaveRate: s.Leave}
		if err := p.validate(nil); err != nil {
			return nil, err
		}
		return p, nil
	case "diurnal":
		d := &Diurnal{JoinRate: s.Join, LeaveRate: s.Leave, Amplitude: s.Amplitude,
			Period: time.Duration(s.PeriodH * float64(time.Hour))}
		if err := d.validate(nil); err != nil {
			return nil, err
		}
		return d, nil
	case "takedown":
		t := &Takedown{After: time.Duration(s.AtH * float64(time.Hour)),
			Frac: s.Frac, Region: -1, Hops: s.Hops}
		if t.After < 0 {
			return nil, fmt.Errorf("churn: takedown: negative at_h %g", s.AtH)
		}
		if t.Hops <= 0 {
			if t.Frac <= 0 || t.Frac > 1 {
				return nil, fmt.Errorf("churn: takedown: fraction %g outside (0, 1]", t.Frac)
			}
			if s.Regions < 1 {
				return nil, fmt.Errorf("churn: takedown: regional mode needs regions >= 1")
			}
		}
		return t, nil
	case "replay":
		if s.TraceFile == "" {
			return nil, fmt.Errorf("churn: replay: no trace_file")
		}
		events, err := LoadTrace(s.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("churn: replay: %w", err)
		}
		r := &Replay{Events: events}
		if err := r.validate(nil); err != nil {
			return nil, err
		}
		return r, nil
	case "":
		return nil, fmt.Errorf("churn: spec has no process")
	default:
		return nil, fmt.Errorf("churn: unknown process %q (want poisson, diurnal, takedown, or replay)", s.Process)
	}
}

// Label renders the spec as a compact deterministic string: the
// process name plus every non-default knob, ";"-separated —
// "poisson;j=4;l=4", "diurnal;j=2;l=2;a=0.5", "takedown;hops=2;at=6".
// Task labels embed it ("churn-repair/churn=poisson;l=8/seed=1"), so
// it contains no "/" and no "," (which would break label splitting and
// CSV cells respectively).
func (s Spec) Label() string {
	var b strings.Builder
	b.WriteString(s.Process)
	part := func(k string, v float64) {
		if v != 0 {
			fmt.Fprintf(&b, ";%s=%g", k, v)
		}
	}
	part("j", s.Join)
	part("l", s.Leave)
	part("a", s.Amplitude)
	part("p", s.PeriodH)
	part("r", float64(s.Regions))
	part("frac", s.Frac)
	part("at", s.AtH)
	part("hops", float64(s.Hops))
	if s.TraceFile != "" {
		// The label embeds the trace's base name (sans extension),
		// sanitized so it can never carry a "/" or "," into task labels
		// or CSV cells, plus a short hash of the full path — two
		// distinct trace files that happen to share a basename
		// (traces/v1/wave.json vs traces/v2/wave.json) must not
		// collide into one label, which would merge their RNG
		// substreams and aggregation rows.
		base := filepath.Base(s.TraceFile)
		base = strings.TrimSuffix(base, filepath.Ext(base))
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
				r >= '0' && r <= '9', r == '-', r == '_', r == '.':
				return r
			}
			return '-'
		}, base)
		h := fnv.New32a()
		h.Write([]byte(s.TraceFile))
		fmt.Fprintf(&b, ";t=%s.%08x", clean, h.Sum32())
	}
	return b.String()
}
