package churn

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"onionbots/internal/ddsr"
	"onionbots/internal/sim"
)

// replayTestOverlay builds a fresh DDSR overlay target of n nodes,
// mirroring the churn-repair substrate.
func replayTestOverlay(t *testing.T, seed uint64, n int) *OverlayTarget {
	t.Helper()
	o, err := ddsr.NewRegular(n, 4, ddsr.DefaultConfig(4), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewOverlayTarget(o, OverlayOptions{JoinPeers: 6, Regions: 4})
}

// TestTraceJSONRoundTrip pins the trace wire format: encode, parse,
// re-encode must be a fixed point, and the parsed events must match
// the originals to nanosecond-level tolerance.
func TestTraceJSONRoundTrip(t *testing.T) {
	sched := sim.NewScheduler()
	target := replayTestOverlay(t, 31, 60)
	eng := NewEngine(sched, 31, target)
	if err := eng.Attach(&Poisson{JoinRate: 6, LeaveRate: 6}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(&Takedown{After: 3 * time.Hour, Frac: 0.5, Region: -1, Label: "wave"}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(8 * time.Hour)
	eng.Stop()
	trace := eng.Trace()
	if len(trace) == 0 {
		t.Fatal("no events recorded")
	}

	enc, err := EncodeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(trace) {
		t.Fatalf("round trip lost events: %d -> %d", len(trace), len(parsed))
	}
	for i := range trace {
		a, b := trace[i], parsed[i]
		if a.Kind != b.Kind || a.Count != b.Count || a.Process != b.Process || a.Size != b.Size {
			t.Fatalf("event %d mutated in round trip: %+v vs %+v", i, a, b)
		}
		if d := a.At - b.At; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("event %d time drifted %v in round trip", i, a.At-b.At)
		}
	}
	enc2, err := EncodeTrace(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Fatal("encode/parse/encode is not a fixed point")
	}
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in, wantErr string }{
		{"unknown kind", `[{"at_s": 1, "kind": "reboot"}]`, "unknown kind"},
		{"unknown field", `[{"at_s": 1, "kind": "join", "who": 3}]`, "unknown field"},
		{"negative time", `[{"at_s": -1, "kind": "join"}]`, "negative time"},
		{"negative count", `[{"at_s": 1, "kind": "join", "count": -2}]`, "negative count"},
		{"time reversal", `[{"at_s": 9, "kind": "join"}, {"at_s": 3, "kind": "leave"}]`, "backwards"},
		{"trailing content", "[{\"at_s\": 1, \"kind\": \"join\"}]\n]", "line 2, column 1: unexpected content after the JSON value"},
		{"syntax error", "[\n  {\"at_s\": 1,}\n]", "line 2, column 14"},
	}
	for _, tc := range cases {
		if _, err := ParseTrace([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReplayReproducesRecordedSchedule is the replay contract: a trace
// recorded from one run, replayed against a fresh same-sized
// population, reproduces the recorded membership timeline — same
// instants, same kinds, same counts, same population trajectory.
func TestReplayReproducesRecordedSchedule(t *testing.T) {
	record := func() []Event {
		sched := sim.NewScheduler()
		target := replayTestOverlay(t, 47, 80)
		eng := NewEngine(sched, 47, target)
		if err := eng.Attach(&Poisson{JoinRate: 4, LeaveRate: 4}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Attach(&Takedown{After: 4 * time.Hour, Frac: 0.4, Region: -1}); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(10 * time.Hour)
		eng.Stop()
		return eng.Trace()
	}
	recorded := record()

	sched := sim.NewScheduler()
	target := replayTestOverlay(t, 1234, 80) // different seed: fresh population
	eng := NewEngine(sched, 1234, target)
	if err := eng.Attach(&Replay{Events: recorded}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(10 * time.Hour)
	eng.Stop()
	replayed := eng.Trace()

	if len(replayed) != len(recorded) {
		t.Fatalf("replay fired %d events, recording had %d", len(replayed), len(recorded))
	}
	for i := range recorded {
		a, b := recorded[i], replayed[i]
		if a.At != b.At {
			t.Fatalf("event %d at %v, recorded %v", i, b.At, a.At)
		}
		if a.Kind != b.Kind || a.Count != b.Count {
			t.Fatalf("event %d is %v×%d, recorded %v×%d", i, b.Kind, b.Count, a.Kind, a.Count)
		}
		if b.Process != "replay" {
			t.Fatalf("event %d tagged %q, want replay", i, b.Process)
		}
		if a.Size != b.Size {
			t.Fatalf("population diverged at event %d: %d vs recorded %d", i, b.Size, a.Size)
		}
	}
}

// TestReplaySpecBuildsFromTraceFile wires the spec form: a "replay"
// process loads the committed example trace, carries a label-safe
// trace tag, and drives a target.
func TestReplaySpecBuildsFromTraceFile(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"process": "replay", "trace_file": "../../examples/traces/takedown-wave.json"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Label(); !strings.HasPrefix(got, "replay;t=takedown-wave.") {
		t.Fatalf("label = %q, want replay;t=takedown-wave.<pathhash>", got)
	}
	if strings.ContainsAny(spec.Label(), "/,") {
		t.Fatalf("label %q unsafe for task labels", spec.Label())
	}
	// Distinct paths sharing a basename must label distinctly: the
	// label is the spec's substream identity.
	other := Spec{Process: "replay", TraceFile: "elsewhere/takedown-wave.json"}
	if other.Label() == spec.Label() {
		t.Fatalf("distinct trace paths collided on label %q", spec.Label())
	}
	proc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	target := replayTestOverlay(t, 7, 40)
	eng := NewEngine(sched, 7, target)
	if err := eng.Attach(proc); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(6 * time.Hour)
	eng.Stop()
	joined, left, takendown := eng.Counts()
	// The example schedule sums to 8 joins, 3 leaves, and 13 members
	// taken down across the two waves.
	if joined != 8 || left != 3 || takendown != 13 {
		t.Fatalf("replayed counts joined=%d left=%d takendown=%d, want 8/3/13", joined, left, takendown)
	}

	// Missing and malformed files fail at Build/Validate time.
	if _, err := ParseSpec([]byte(`{"process": "replay"}`)); err == nil ||
		!strings.Contains(err.Error(), "no trace_file") {
		t.Fatalf("traceless replay accepted: %v", err)
	}
	if _, err := ParseSpec([]byte(`{"process": "replay", "trace_file": "/nonexistent.json"}`)); err == nil {
		t.Fatal("missing trace file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"at_s": 1, "kind": "reboot"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec([]byte(`{"process": "replay", "trace_file": "` + bad + `"}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("malformed trace accepted: %v", err)
	}
}
