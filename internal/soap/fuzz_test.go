package soap

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec hunts for SOAP-campaign inputs that panic the parser
// or break its contracts: accepted specs validate, label safely, and
// round-trip through JSON unchanged.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"clones": 64}`))
	f.Add([]byte(`{"clones": 24, "round_s": 15, "solve_pow": true, "solve_bits": 20}`))
	f.Add([]byte(`{"non": 3}`))
	f.Add([]byte(`{"clones": -1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"clones": 8} {"clones": 9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", verr, data)
		}
		if label := s.Label(); strings.ContainsAny(label, "/,") {
			t.Fatalf("label %q contains a task-label or CSV delimiter", label)
		}
		enc, merr := json.Marshal(s)
		if merr != nil {
			t.Fatalf("accepted spec does not marshal: %v", merr)
		}
		s2, perr := ParseSpec(enc)
		if perr != nil {
			t.Fatalf("re-parse of %s failed: %v", enc, perr)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed spec: %+v vs %+v", s, s2)
		}
	})
}
