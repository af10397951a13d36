package soap

import (
	"strings"
	"testing"
	"time"
)

func TestSpecParseValidateAndConfig(t *testing.T) {
	s, err := ParseSpec([]byte(`{"clones": 24, "round_s": 15, "solve_pow": true, "solve_bits": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config().withDefaults()
	if cfg.MaxClonesPerTarget != 24 || cfg.RoundInterval != 15*time.Second ||
		!cfg.SolvePoW || cfg.MaxSolveBits != 20 {
		t.Fatalf("config lost knobs: %+v", cfg)
	}
	// The zero spec keeps every campaign default.
	zero := Spec{}.Config().withDefaults()
	def := Config{}.withDefaults()
	if zero != def {
		t.Fatalf("zero spec changed defaults: %+v vs %+v", zero, def)
	}

	bad := []struct{ name, in, wantErr string }{
		{"unknown field", `{"budget": 3}`, "unknown field"},
		{"negative clones", `{"clones": -1}`, "negative clone"},
		{"negative round", `{"round_s": -2}`, "negative round"},
		{"bits without pow", `{"solve_bits": 12}`, "without solve_pow"},
		{"absurd bits", `{"solve_pow": true, "solve_bits": 50}`, "grind"},
		{"trailing content", `{"clones": 8} {"clones": 9}`, "column 15: unexpected content after the JSON value"},
	}
	for _, tc := range bad {
		if _, err := ParseSpec([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestSpecLabelDeterministicAndLabelSafe(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "soap"},
		{Spec{Clones: 64}, "soap;c=64"},
		{Spec{Clones: 24, RoundS: 15, SolvePoW: true, SolveBits: 20}, "soap;c=24;r=15;pow;b=20"},
		{Spec{NoN: 5}, "soap;non=5"},
	}
	for _, tc := range cases {
		got := tc.spec.Label()
		if got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
		if strings.ContainsAny(got, "/,") {
			t.Errorf("label %q contains label-splitting characters", got)
		}
	}
}
