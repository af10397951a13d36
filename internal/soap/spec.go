package soap

import (
	"fmt"
	"strings"
	"time"

	"onionbots/internal/jsonx"
)

// Spec is the declarative, JSON-serializable form of a SOAP campaign —
// the knob group experiment parameters carry and what a sweep's "soap"
// axis lists, mirroring churn.Spec. Build turns it into a Config;
// Label renders it as a compact deterministic string for task labels
// (and therefore RNG substreams), so two distinct campaigns always
// sweep onto distinct random streams.
//
//	{"clones": 64}
//	{"clones": 24, "round_s": 15, "solve_pow": true, "solve_bits": 20}
type Spec struct {
	// Clones is the per-target clone budget (Config.MaxClonesPerTarget).
	// Zero keeps the campaign default.
	Clones int `json:"clones,omitempty"`
	// RoundS spaces clone waves, in virtual seconds
	// (Config.RoundInterval). Zero keeps the default.
	RoundS float64 `json:"round_s,omitempty"`
	// NoN is how many sibling clones a clone discloses as neighbors
	// (Config.NoNSubset). Zero keeps the default.
	NoN int `json:"non,omitempty"`
	// SolvePoW lets clones pay hashcash challenges from hardened bots
	// (Section VII-A).
	SolvePoW bool `json:"solve_pow,omitempty"`
	// SolveBits caps the attacker's per-challenge work when SolvePoW is
	// on (Config.MaxSolveBits). Zero keeps the default.
	SolveBits uint8 `json:"solve_bits,omitempty"`
}

// ParseSpec decodes and validates a JSON spec. Unknown fields are
// rejected, mirroring sweep parsing, so a typo ("budget" for "clones")
// cannot silently run the default campaign under a mislabeled grid
// point.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := jsonx.DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("parse soap spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the knobs without building a config.
func (s Spec) Validate() error {
	if s.Clones < 0 {
		return fmt.Errorf("soap: negative clone budget %d", s.Clones)
	}
	if s.RoundS < 0 {
		return fmt.Errorf("soap: negative round interval %gs", s.RoundS)
	}
	if s.NoN < 0 {
		return fmt.Errorf("soap: negative NoN subset %d", s.NoN)
	}
	if s.SolveBits > 0 && !s.SolvePoW {
		return fmt.Errorf("soap: solve_bits set without solve_pow")
	}
	if s.SolveBits > 40 {
		return fmt.Errorf("soap: solve_bits %d would grind the simulation (cap 40)", s.SolveBits)
	}
	return nil
}

// Config realizes the spec over the campaign defaults.
func (s Spec) Config() Config {
	cfg := Config{
		MaxClonesPerTarget: s.Clones,
		NoNSubset:          s.NoN,
		SolvePoW:           s.SolvePoW,
		MaxSolveBits:       s.SolveBits,
	}
	if s.RoundS > 0 {
		cfg.RoundInterval = time.Duration(s.RoundS * float64(time.Second))
	}
	return cfg
}

// Label renders the spec as a compact deterministic string: "soap"
// plus every non-default knob, ";"-separated — "soap;c=64",
// "soap;c=24;r=15;pow;b=20". Task labels embed it
// ("churn-soap/soap=soap;c=64/seed=1"), so it contains no "/" and no
// ",". The zero spec renders as plain "soap" (campaign defaults).
func (s Spec) Label() string {
	var b strings.Builder
	b.WriteString("soap")
	if s.Clones != 0 {
		fmt.Fprintf(&b, ";c=%d", s.Clones)
	}
	if s.RoundS != 0 {
		fmt.Fprintf(&b, ";r=%g", s.RoundS)
	}
	if s.NoN != 0 {
		fmt.Fprintf(&b, ";non=%d", s.NoN)
	}
	if s.SolvePoW {
		b.WriteString(";pow")
	}
	if s.SolveBits != 0 {
		fmt.Fprintf(&b, ";b=%d", s.SolveBits)
	}
	return b.String()
}
