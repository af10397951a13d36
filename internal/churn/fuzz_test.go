package churn

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec hunts for churn-spec inputs that panic the parser or
// break its contracts: an accepted spec must validate, must render a
// label safe for task-label embedding (no "/" or ","), and must
// round-trip through JSON back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"process": "poisson", "join": 4, "leave": 4}`))
	f.Add([]byte(`{"process": "diurnal", "join": 2, "leave": 2, "amplitude": 0.8, "period_h": 24}`))
	f.Add([]byte(`{"process": "takedown", "frac": 0.5, "regions": 4, "at_h": 6}`))
	f.Add([]byte(`{"process": "takedown", "hops": 2, "at_h": 6}`))
	f.Add([]byte(`{"process": "bogus"}`))
	f.Add([]byte(`{"process": "poisson", "leave": 1e308}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"process": "poisson", "leave": 2} xyz`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Replay specs open the named trace file; feeding the parser
		// fuzzer-chosen paths means unbounded reads (/dev/zero). The
		// trace format itself is fuzzed by FuzzParseTrace.
		if strings.Contains(string(data), "trace_file") {
			t.Skip()
		}
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", verr, data)
		}
		label := s.Label()
		if strings.ContainsAny(label, "/,") {
			t.Fatalf("label %q contains a task-label or CSV delimiter\ninput: %q", label, data)
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

// FuzzParseTrace hunts for trace inputs that panic the parser or break
// the encode/parse fixed point: any accepted trace must survive
// EncodeTrace → ParseTrace unchanged.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(`[{"at_s": 0, "kind": "join", "count": 3}]`))
	f.Add([]byte(`[{"at_s": 1.5, "kind": "leave", "count": 1}, {"at_s": 2, "kind": "takedown", "count": 4, "size": 2}]`))
	f.Add([]byte(`[{"at_s": 0.0000005, "process": "poisson", "kind": "join", "count": 1}]`))
	f.Add([]byte(`[{"at_s": -1, "kind": "join"}]`))
	f.Add([]byte(`[{"at_s": 2, "kind": "join"}, {"at_s": 1, "kind": "join"}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"at_s": 3, "process": "relay-crash", "kind": "crash", "count": 1, "size": 25}]`))
	f.Add([]byte(`[{"at_s": 0, "kind": "join"}] [`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseTrace(data)
		if err != nil {
			return
		}
		enc, eerr := EncodeTrace(events)
		if eerr != nil {
			t.Fatalf("accepted trace does not encode: %v", eerr)
		}
		events2, perr := ParseTrace(enc)
		if perr != nil {
			t.Fatalf("re-parse of encoded trace failed: %v\nencoded: %s", perr, enc)
		}
		if !reflect.DeepEqual(events, events2) {
			t.Fatalf("encode/parse is not a fixed point:\n%+v\nvs\n%+v", events, events2)
		}
	})
}

// FuzzParseFaultSpec hunts for fault-plane inputs that panic the parser or
// break its contracts: accepted specs validate, label safely, and
// round-trip through JSON unchanged.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add([]byte(`{"crash_rate": 6, "restart_h": 1}`))
	f.Add([]byte(`{"outage_frac": 0.3, "outage_at_h": 2, "outage_targeted": true}`))
	f.Add([]byte(`{"crash_rate": 6, "retry_attempts": 3, "retry_backoff_s": 300}`))
	f.Add([]byte(`{"outage_frac": 1.5}`))
	f.Add([]byte(`{"restart_h": 1}`))
	f.Add([]byte(`{"intro_fail_p": 0.2}`))
	f.Add([]byte(`{"retry_attempts": 1}]]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseFaultSpec(data)
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
		s2, perr := ParseFaultSpec(enc)
		if perr != nil {
			t.Fatalf("re-parse of %s failed: %v", enc, perr)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed spec: %+v vs %+v", s, s2)
		}
	})
}
