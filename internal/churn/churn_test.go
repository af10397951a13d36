package churn

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"onionbots/internal/ddsr"
	"onionbots/internal/sim"
)

// countTarget is a minimal in-memory population for process-level tests.
type countTarget struct {
	n       int
	regions int
}

func (t *countTarget) Size() int { return t.n }
func (t *countTarget) Join(*sim.RNG) bool {
	t.n++
	return true
}
func (t *countTarget) Leave(*sim.RNG) bool {
	if t.n == 0 {
		return false
	}
	t.n--
	return true
}
func (t *countTarget) Regions() int { return t.regions }
func (t *countTarget) TakedownRegion(_ *sim.RNG, region int, frac float64) int {
	k := int(frac * float64(t.n) / float64(t.regions))
	t.n -= k
	return k
}

func newOverlay(t *testing.T, n, k int, seed uint64) *ddsr.Overlay {
	t.Helper()
	o, err := ddsr.NewRegular(n, k, ddsr.DefaultConfig(k), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPoissonInterArrivalDistribution(t *testing.T) {
	// A homogeneous Poisson process at rate λ must produce ~λT events
	// over T with exponential inter-arrivals: mean 1/λ and coefficient
	// of variation 1. This is the distribution-sanity anchor for every
	// process built on the thinning construction.
	sched := sim.NewScheduler()
	target := &countTarget{n: 1 << 30} // effectively inexhaustible
	eng := NewEngine(sched, 42, target)
	const lambda = 8.0 // leaves per hour
	if err := eng.Attach(&Poisson{LeaveRate: lambda}); err != nil {
		t.Fatal(err)
	}
	const hours = 500
	sched.RunFor(hours * time.Hour)

	trace := eng.Trace()
	want := lambda * hours
	if got := float64(len(trace)); got < 0.9*want || got > 1.1*want {
		t.Fatalf("event count %v far from λT = %v", got, want)
	}
	// Inter-arrival mean and standard deviation in hours.
	var gaps []float64
	prev := time.Duration(0)
	for _, ev := range trace {
		gaps = append(gaps, (ev.At - prev).Hours())
		prev = ev.At
	}
	mean, sd := meanStd(gaps)
	if wantMean := 1 / lambda; math.Abs(mean-wantMean) > 0.15*wantMean {
		t.Errorf("inter-arrival mean %.4f, want ~%.4f", mean, wantMean)
	}
	if cv := sd / mean; cv < 0.9 || cv > 1.1 {
		t.Errorf("inter-arrival CV %.3f, want ~1 (exponential)", cv)
	}
}

func TestPoissonJoinLeaveSplit(t *testing.T) {
	sched := sim.NewScheduler()
	target := &countTarget{n: 1 << 30}
	eng := NewEngine(sched, 7, target)
	if err := eng.Attach(&Poisson{JoinRate: 6, LeaveRate: 2}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(300 * time.Hour)
	joined, left, _ := eng.Counts()
	if joined == 0 || left == 0 {
		t.Fatalf("joined=%d left=%d, want both positive", joined, left)
	}
	// Joins should outnumber leaves ~3:1.
	ratio := float64(joined) / float64(left)
	if ratio < 2.2 || ratio > 4.0 {
		t.Errorf("join/leave ratio %.2f, want ~3", ratio)
	}
}

func TestEngineTraceDeterministic(t *testing.T) {
	run := func() []Event {
		sched := sim.NewScheduler()
		eng := NewEngine(sched, 99, NewOverlayTarget(newOverlay(t, 120, 6, 1), OverlayOptions{JoinPeers: 6}))
		if err := eng.Attach(&Poisson{JoinRate: 4, LeaveRate: 4}); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(48 * time.Hour)
		return eng.Trace()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d events)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

func TestProcessesGetIndependentSubstreams(t *testing.T) {
	// Two processes with distinct names on one engine must not share a
	// stream: the trace must differ from a single double-rate process,
	// and duplicate names are rejected outright.
	sched := sim.NewScheduler()
	eng := NewEngine(sched, 5, &countTarget{n: 1 << 30})
	if err := eng.Attach(&Poisson{LeaveRate: 4, Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(&Poisson{LeaveRate: 4, Label: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(&Poisson{LeaveRate: 1, Label: "a"}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name accepted: %v", err)
	}
	sched.RunFor(100 * time.Hour)
	byName := map[string]int{}
	for _, ev := range eng.Trace() {
		byName[ev.Process]++
	}
	if byName["a"] == 0 || byName["b"] == 0 {
		t.Fatalf("process starved: %v", byName)
	}
	if byName["a"] == byName["b"] {
		// Equal counts are possible but the full traces coinciding is
		// not; this is a cheap inequality proxy on expectation — allow
		// equality only if the arrival instants differ.
		var at [2][]time.Duration
		for _, ev := range eng.Trace() {
			if ev.Process == "a" {
				at[0] = append(at[0], ev.At)
			} else {
				at[1] = append(at[1], ev.At)
			}
		}
		if reflect.DeepEqual(at[0], at[1]) {
			t.Fatal("processes a and b fired at identical instants: shared substream")
		}
	}
}

func TestDiurnalModulationShapesArrivals(t *testing.T) {
	// With amplitude 1, sin > 0 in the first half-period and < 0 in the
	// second: arrivals must concentrate heavily in the first half of
	// each cycle.
	sched := sim.NewScheduler()
	eng := NewEngine(sched, 11, &countTarget{n: 1 << 30})
	if err := eng.Attach(&Diurnal{LeaveRate: 12, Amplitude: 1, Period: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(200 * 24 * time.Hour)
	peak, trough := 0, 0
	for _, ev := range eng.Trace() {
		if math.Mod(ev.At.Hours(), 24) < 12 {
			peak++
		} else {
			trough++
		}
	}
	if peak == 0 {
		t.Fatal("no events")
	}
	// ∫(1+sin) over the peak half vs the trough half: (12+24/π) vs
	// (12-24/π) ≈ 4.9:1.
	if ratio := float64(peak) / float64(trough+1); ratio < 3 {
		t.Errorf("peak/trough arrivals %d/%d (ratio %.1f), want strong diurnal skew", peak, trough, ratio)
	}
}

func TestOverlayTargetJoinLeave(t *testing.T) {
	o := newOverlay(t, 100, 6, 2)
	target := NewOverlayTarget(o, OverlayOptions{JoinPeers: 6})
	rng := sim.NewRNG(3)
	for i := 0; i < 40; i++ {
		if !target.Join(rng) {
			t.Fatal("join failed")
		}
	}
	for i := 0; i < 60; i++ {
		if !target.Leave(rng) {
			t.Fatal("leave failed")
		}
	}
	if target.Size() != 80 {
		t.Fatalf("size = %d, want 80", target.Size())
	}
	g := o.Graph()
	if g.NumNodes() != 80 {
		t.Fatalf("graph nodes = %d, want 80", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > o.Config().DMax {
		t.Fatalf("max degree %d exceeds DMax %d after churn", g.MaxDegree(), o.Config().DMax)
	}
	if !g.Connected() {
		t.Fatal("overlay disconnected after moderate churn with repair")
	}
	if o.Stats().NodesJoined != 40 {
		t.Fatalf("joins processed = %d, want 40", o.Stats().NodesJoined)
	}
}

func TestOverlayTargetRegionalTakedown(t *testing.T) {
	o := newOverlay(t, 200, 6, 4)
	target := NewOverlayTarget(o, OverlayOptions{JoinPeers: 6, Regions: 4})
	rng := sim.NewRNG(9)
	removed := target.TakedownRegion(rng, 2, 0.5)
	// Region 2 holds ids ≡ 2 (mod 4): 50 members, half = 25.
	if removed != 25 {
		t.Fatalf("removed %d, want 25", removed)
	}
	if target.Size() != 175 {
		t.Fatalf("size = %d, want 175", target.Size())
	}
	stillThere := 0
	for _, id := range o.Graph().Nodes() {
		if id%4 == 2 {
			stillThere++
		}
	}
	if stillThere != 25 {
		t.Fatalf("region 2 survivors = %d, want 25", stillThere)
	}
}

func TestOverlayTargetNeighborhoodTakedown(t *testing.T) {
	o := newOverlay(t, 200, 6, 5)
	target := NewOverlayTarget(o, OverlayOptions{JoinPeers: 6})
	rng := sim.NewRNG(4)
	removed := target.TakedownNeighborhood(rng, 1)
	// One node plus its (≤ DMax) neighbors.
	if removed < 2 || removed > 1+o.Config().DMax {
		t.Fatalf("1-hop takedown removed %d, want in [2, %d]", removed, 1+o.Config().DMax)
	}
	if target.Size() != 200-removed {
		t.Fatalf("size %d after removing %d from 200", target.Size(), removed)
	}
	if err := o.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTakedownProcessFiresOnce(t *testing.T) {
	sched := sim.NewScheduler()
	o := newOverlay(t, 80, 6, 6)
	eng := NewEngine(sched, 13, NewOverlayTarget(o, OverlayOptions{JoinPeers: 6, Regions: 4}))
	if err := eng.Attach(&Takedown{After: 6 * time.Hour, Frac: 1, Region: -1}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(5 * time.Hour)
	if len(eng.Trace()) != 0 {
		t.Fatal("takedown fired early")
	}
	sched.RunFor(2 * time.Hour)
	trace := eng.Trace()
	if len(trace) != 1 || trace[0].Kind != KindTakedown || trace[0].Count != 20 {
		t.Fatalf("trace = %+v, want one takedown of 20", trace)
	}
	sched.RunFor(100 * time.Hour)
	if len(eng.Trace()) != 1 {
		t.Fatal("takedown fired again")
	}
}

func TestAttachValidatesCapabilities(t *testing.T) {
	sched := sim.NewScheduler()
	eng := NewEngine(sched, 1, &countTarget{n: 10}) // no Neighborhood support
	err := eng.Attach(&Takedown{Hops: 2})
	if err == nil || !strings.Contains(err.Error(), "neighborhood") {
		t.Fatalf("err = %v, want neighborhood capability error", err)
	}
	err = eng.Attach(&Takedown{Frac: 0.5}) // regions = 0
	if err == nil || !strings.Contains(err.Error(), "regions") {
		t.Fatalf("err = %v, want regions error", err)
	}
	if err := eng.Attach(&Poisson{}); err == nil {
		t.Fatal("zero-rate Poisson accepted")
	}
	// A runaway rate must fail validation, not wedge the scheduler in
	// same-instant events.
	if err := eng.Attach(&Poisson{LeaveRate: 1e13, Label: "runaway"}); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want rate-cap error", err)
	}
	if err := eng.Attach(&Diurnal{LeaveRate: MaxRate, Amplitude: 1, Label: "runaway2"}); err == nil {
		t.Fatal("diurnal peak rate above cap accepted")
	}
}

func TestEngineStopFreezesPopulation(t *testing.T) {
	sched := sim.NewScheduler()
	target := &countTarget{n: 1000}
	eng := NewEngine(sched, 2, target)
	if err := eng.Attach(&Poisson{LeaveRate: 10}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(10 * time.Hour)
	eng.Stop()
	frozen := target.Size()
	events := len(eng.Trace())
	sched.RunFor(100 * time.Hour)
	if target.Size() != frozen || len(eng.Trace()) != events {
		t.Fatalf("population moved after Stop: %d -> %d", frozen, target.Size())
	}
}

func TestSpecValidateAndLabel(t *testing.T) {
	cases := []struct {
		spec    Spec
		label   string
		wantErr string
	}{
		{Spec{Process: "poisson", Leave: 8}, "poisson;l=8", ""},
		{Spec{Process: "poisson", Join: 4, Leave: 4}, "poisson;j=4;l=4", ""},
		{Spec{Process: "diurnal", Join: 2, Leave: 2, Amplitude: 0.5, PeriodH: 12}, "diurnal;j=2;l=2;a=0.5;p=12", ""},
		{Spec{Process: "takedown", Frac: 0.5, Regions: 4, AtH: 6}, "takedown;r=4;frac=0.5;at=6", ""},
		{Spec{Process: "takedown", Hops: 2, AtH: 6}, "takedown;at=6;hops=2", ""},
		{Spec{}, "", "no process"},
		{Spec{Process: "flash"}, "", "unknown process"},
		{Spec{Process: "poisson"}, "", "both rates zero"},
		{Spec{Process: "diurnal", Leave: 2, Amplitude: 2}, "", "amplitude"},
		{Spec{Process: "diurnal", Leave: 2}, "", "amplitude"},
		{Spec{Process: "takedown", Frac: 1.5, Regions: 2}, "", "fraction"},
		{Spec{Process: "takedown", Frac: 0.5}, "", "regions"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%+v: err = %v, want containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: unexpected error %v", tc.spec, err)
			continue
		}
		if got := tc.spec.Label(); got != tc.label {
			t.Errorf("label = %q, want %q", got, tc.label)
		}
		if strings.ContainsAny(tc.spec.Label(), "/,") {
			t.Errorf("label %q contains a reserved character", tc.spec.Label())
		}
		if _, err := tc.spec.Build(); err != nil {
			t.Errorf("%+v: build failed: %v", tc.spec, err)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"process":"poisson","rate":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	_, err := ParseSpec([]byte(`{"process":"poisson","leave":2} xyz`))
	if err == nil || !strings.Contains(err.Error(), "line 1, column 33: unexpected content after the JSON value") {
		t.Fatalf("trailing content: err = %v", err)
	}
	s, err := ParseSpec([]byte(`{"process":"poisson","leave":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Leave != 8 {
		t.Fatalf("parsed %+v", s)
	}
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}
