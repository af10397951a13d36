package churn

import (
	"fmt"
	"strings"
	"time"

	"onionbots/internal/jsonx"
	"onionbots/internal/tor"
)

// FaultSpec is the declarative, JSON-serializable form of a fault plane —
// what experiment parameters carry and what a sweep's "faults" axis
// lists. One spec bundles the fault processes to inject AND the
// client-side retry budget to fight them with, so a single sweep axis
// can cross outage intensity against resilience (the hsdir-outage-grid
// example does exactly that).
//
//	{"crash_rate": 6, "restart_h": 1}
//	{"outage_frac": 0.3, "outage_at_h": 2, "outage_targeted": true}
//	{"crash_rate": 6, "retry_attempts": 3, "retry_backoff_s": 300}
type FaultSpec struct {
	// CrashRate enables a RelayCrash process: mean relay crashes per
	// virtual hour.
	CrashRate float64 `json:"crash_rate,omitempty"`
	// RestartH is the mean crash-to-restart delay in virtual hours;
	// zero means crashed relays never return. Requires CrashRate.
	RestartH float64 `json:"restart_h,omitempty"`
	// OutageFrac enables an HSDirOutage process: the fraction of the
	// HSDir ring one wave removes, in (0, 1].
	OutageFrac float64 `json:"outage_frac,omitempty"`
	// OutageAtH is the wave instant in virtual hours after attach.
	// Requires OutageFrac.
	OutageAtH float64 `json:"outage_at_h,omitempty"`
	// OutageTargeted centers the wave on the focal service an experiment
	// passes to Attach (typically its C&C). Requires OutageFrac.
	OutageTargeted bool `json:"outage_targeted,omitempty"`
	// RetryAttempts is the client dial budget including the first
	// attempt; 0 or 1 means no retries. See RetryPolicy.
	RetryAttempts int `json:"retry_attempts,omitempty"`
	// RetryBackoffS is the base backoff before the second attempt in
	// virtual seconds (doubled per failure); zero takes the tor-layer
	// default. Requires RetryAttempts > 1.
	RetryBackoffS float64 `json:"retry_backoff_s,omitempty"`
}

// ParseFaultSpec decodes and validates a JSON spec. Unknown fields and
// trailing content are rejected, mirroring sweep parsing, so a typo
// ("outage" for "outage_frac") cannot silently disable an axis.
func ParseFaultSpec(data []byte) (FaultSpec, error) {
	var s FaultSpec
	if err := jsonx.DecodeStrict(data, &s); err != nil {
		return FaultSpec{}, fmt.Errorf("parse faults spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return FaultSpec{}, err
	}
	return s, nil
}

// Validate checks the spec without attaching it.
func (s FaultSpec) Validate() error {
	if s == (FaultSpec{}) {
		return fmt.Errorf("faults: empty spec (set a fault knob or a retry budget)")
	}
	if s.CrashRate < 0 {
		return fmt.Errorf("faults: negative crash_rate %g", s.CrashRate)
	}
	if s.RestartH < 0 {
		return fmt.Errorf("faults: negative restart_h %g", s.RestartH)
	}
	if s.RestartH > 0 && s.CrashRate == 0 {
		return fmt.Errorf("faults: restart_h without crash_rate")
	}
	if s.OutageFrac < 0 || s.OutageFrac > 1 {
		return fmt.Errorf("faults: outage_frac %g outside [0, 1]", s.OutageFrac)
	}
	if s.OutageAtH < 0 {
		return fmt.Errorf("faults: negative outage_at_h %g", s.OutageAtH)
	}
	if (s.OutageAtH > 0 || s.OutageTargeted) && s.OutageFrac == 0 {
		return fmt.Errorf("faults: outage_at_h/outage_targeted without outage_frac")
	}
	if s.RetryAttempts < 0 {
		return fmt.Errorf("faults: negative retry_attempts %d", s.RetryAttempts)
	}
	if s.RetryBackoffS < 0 {
		return fmt.Errorf("faults: negative retry_backoff_s %g", s.RetryBackoffS)
	}
	if s.RetryBackoffS > 0 && s.RetryAttempts <= 1 {
		return fmt.Errorf("faults: retry_backoff_s without retry_attempts > 1")
	}
	// Process-level validation (rate cap etc.) without a network.
	for _, p := range s.processes("") {
		if err := p.validate(nil); err != nil {
			return err
		}
	}
	return nil
}

// Attach builds the spec's enabled fault processes and attaches each to
// the engine, whose target must be a RelayTarget. targetService is the
// onion address a targeted outage (OutageTargeted) centers on —
// typically the experiment's C&C rally address — which a spec cannot
// know when it is written. A spec with only retry knobs attaches
// nothing — it is a legitimate baseline row of a sweep grid.
func (s FaultSpec) Attach(e *Engine, targetService string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.OutageTargeted && targetService == "" {
		return fmt.Errorf("faults: outage_targeted spec attached without a target service")
	}
	for _, p := range s.processes(targetService) {
		if err := e.Attach(p); err != nil {
			return err
		}
	}
	return nil
}

// processes builds the live fault processes the spec enables.
func (s FaultSpec) processes(targetService string) []Process {
	var out []Process
	if s.CrashRate > 0 {
		out = append(out, &RelayCrash{
			Rate:        s.CrashRate,
			MeanRestart: time.Duration(s.RestartH * float64(time.Hour)),
		})
	}
	if s.OutageFrac > 0 {
		o := &HSDirOutage{
			After: time.Duration(s.OutageAtH * float64(time.Hour)),
			Frac:  s.OutageFrac,
		}
		if s.OutageTargeted {
			o.Service = targetService
		}
		out = append(out, o)
	}
	return out
}

// RetryPolicy realizes the spec's client-side retry knobs as a proxy
// policy. The zero knobs give the zero (disabled) policy.
func (s FaultSpec) RetryPolicy() tor.RetryPolicy {
	if s.RetryAttempts <= 1 {
		return tor.RetryPolicy{}
	}
	rp := tor.RetryPolicy{MaxAttempts: s.RetryAttempts}
	if s.RetryBackoffS > 0 {
		rp.BaseBackoff = time.Duration(s.RetryBackoffS * float64(time.Second))
	}
	return rp
}

// Label renders the spec as a compact deterministic string: "faults"
// plus every non-default knob, ";"-separated —
// "faults;outage=0.3;at=2;tgt;retry=4;bo=1800". Task labels embed it
// ("hsdir-outage/faults=faults;outage=0.3/seed=1"), so it contains no
// "/" and no "," (which would break label splitting and CSV cells
// respectively).
func (s FaultSpec) Label() string {
	var b strings.Builder
	b.WriteString("faults")
	part := func(k string, v float64) {
		if v != 0 {
			fmt.Fprintf(&b, ";%s=%g", k, v)
		}
	}
	part("crash", s.CrashRate)
	part("restart", s.RestartH)
	part("outage", s.OutageFrac)
	part("at", s.OutageAtH)
	if s.OutageTargeted {
		b.WriteString(";tgt")
	}
	part("retry", float64(s.RetryAttempts))
	part("bo", s.RetryBackoffS)
	return b.String()
}
