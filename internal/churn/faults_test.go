package churn

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// newTestNetwork bootstraps a network whose bootstrapped relays all
// hold the HSDir flag, plus young extra relays that do not — the
// RelayCrash victim pool.
func newTestNetwork(t *testing.T, seed uint64, hsdirs, extras int) (*sim.Scheduler, *tor.Network) {
	t.Helper()
	sched := sim.NewScheduler()
	n := tor.NewNetwork(sched, sim.NewRNG(seed), tor.Config{})
	if err := n.Bootstrap(hsdirs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extras; i++ {
		if _, err := n.AddRelay(); err != nil {
			t.Fatal(err)
		}
	}
	if extras > 0 {
		n.PublishConsensus()
	}
	return sched, n
}

func TestSpecParseValidateLabel(t *testing.T) {
	good := []struct{ in, label string }{
		{`{"crash_rate": 6, "restart_h": 1}`, "faults;crash=6;restart=1"},
		{`{"outage_frac": 0.3, "outage_at_h": 2, "outage_targeted": true}`, "faults;outage=0.3;at=2;tgt"},
		{`{"crash_rate": 6, "retry_attempts": 3, "retry_backoff_s": 300}`, "faults;crash=6;retry=3;bo=300"},
		{`{"retry_attempts": 1}`, "faults;retry=1"},
	}
	for _, c := range good {
		s, err := ParseFaultSpec([]byte(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if got := s.Label(); got != c.label {
			t.Errorf("%s: label %q, want %q", c.in, got, c.label)
		}
		if strings.ContainsAny(s.Label(), "/,") {
			t.Errorf("%s: label %q contains label-splitting characters", c.in, s.Label())
		}
	}
	bad := []string{
		`{}`,
		`{"crash_rate": -1}`,
		`{"crash_rate": 1e9}`,
		`{"restart_h": 1}`,
		`{"outage_frac": 1.5}`,
		`{"outage_at_h": 2}`,
		`{"outage_targeted": true}`,
		`{"retry_attempts": -1}`,
		`{"retry_backoff_s": 30}`,
		`{"retry_backoff_s": 30, "retry_attempts": 1}`,
		`{"outage": 0.5}`,         // unknown field
		`{"intro_fail_p": 0.2}`,   // unknown field
		`{"retry_attempts": 1}]]`, // trailing content
	}
	for _, in := range bad {
		if _, err := ParseFaultSpec([]byte(in)); err == nil {
			t.Errorf("%s: accepted invalid spec", in)
		}
	}
}

func TestRelayCrashDeterminismAndRestart(t *testing.T) {
	run := func() ([]Event, int) {
		sched, n := newTestNetwork(t, 11, 10, 12)
		e := NewEngine(sched, 99, NewRelayTarget(n))
		if err := e.Attach(&RelayCrash{Rate: 8, MeanRestart: 30 * time.Minute}); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(12 * time.Hour)
		e.Stop()
		return e.Trace(), n.NumRelays()
	}
	t1, relays1 := run()
	t2, relays2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("crash trace not deterministic:\n%v\n---\n%v", t1, t2)
	}
	if relays1 != relays2 {
		t.Fatalf("final relay counts differ: %d vs %d", relays1, relays2)
	}
	crashed, restarted, _ := func() (int, int, int) {
		sched, n := newTestNetwork(t, 11, 10, 12)
		e := NewEngine(sched, 99, NewRelayTarget(n))
		if err := e.Attach(&RelayCrash{Rate: 8, MeanRestart: 30 * time.Minute}); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(12 * time.Hour)
		e.Stop()
		return e.FaultCounts()
	}()
	if crashed == 0 {
		t.Fatal("crash process at rate 8 never crashed a relay in 12h")
	}
	if restarted == 0 {
		t.Fatal("restarts enabled but no relay ever returned")
	}
	if restarted > crashed {
		t.Fatalf("%d restarts exceed %d crashes", restarted, crashed)
	}
}

func TestRelayCrashSparesHSDirs(t *testing.T) {
	sched, n := newTestNetwork(t, 5, 8, 10)
	hsdirs := n.Consensus().HSDirs()
	e := NewEngine(sched, 7, NewRelayTarget(n))
	if err := e.Attach(&RelayCrash{Rate: 20}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(24 * time.Hour)
	e.Stop()
	crashed, _, _ := e.FaultCounts()
	if crashed == 0 {
		t.Fatal("no crashes at rate 20 over 24h")
	}
	for _, fp := range hsdirs {
		if n.Relay(fp) == nil {
			t.Fatalf("crash process killed HSDir %x", fp[:4])
		}
	}
}

func TestHSDirOutageWave(t *testing.T) {
	sched, n := newTestNetwork(t, 21, 20, 0)
	ring := n.Consensus().HSDirs() // pre-wave snapshot: lists the victims
	before := len(ring)
	e := NewEngine(sched, 13, NewRelayTarget(n))
	if err := e.Attach(&HSDirOutage{After: 2 * time.Hour, Frac: 0.3}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Hour)
	if _, _, outaged := e.FaultCounts(); outaged != 0 {
		t.Fatal("wave fired before its instant")
	}
	sched.RunFor(90 * time.Minute)
	e.Stop()
	_, _, outaged := e.FaultCounts()
	want := int(0.3*float64(before) + 0.5)
	if outaged != want {
		t.Fatalf("outage removed %d of %d dirs, want %d", outaged, before, want)
	}
	// The victims are a contiguous ring arc: walking the pre-wave ring
	// must cross exactly one dead run (wrap-around counts as one).
	deadRuns, prevDead := 0, n.Relay(ring[len(ring)-1]) == nil
	for _, fp := range ring {
		dead := n.Relay(fp) == nil
		if dead && !prevDead {
			deadRuns++
		}
		prevDead = dead
	}
	if deadRuns != 1 {
		t.Fatalf("outage removed %d disjoint arcs, want 1 contiguous", deadRuns)
	}
}

func TestHSDirOutageTargetsService(t *testing.T) {
	sched, n := newTestNetwork(t, 31, 20, 0)
	// Host a service, then target its responsible directories.
	id := tor.IdentityFromSeed([32]byte{31})
	proxy := tor.NewProxy(n)
	hs, err := proxy.Host(id, func(*tor.Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sched, 17, NewRelayTarget(n))
	if err := e.Attach(&HSDirOutage{After: time.Hour, Frac: 0.3, Service: hs.Onion()}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Hour + time.Minute)
	e.Stop()
	// Every responsible directory of every replica must be dead.
	c := n.Consensus()
	sid := id.ServiceID()
	now := n.Now()
	for r := 0; r < tor.NumReplicas; r++ {
		for _, fp := range c.ResponsibleHSDirs(tor.ComputeDescriptorID(sid, nil, r, now)) {
			if n.Relay(fp) != nil {
				t.Fatalf("replica %d responsible dir %x survived a targeted wave", r, fp[:4])
			}
		}
	}
}

func TestEngineRejectsDuplicateNames(t *testing.T) {
	sched, n := newTestNetwork(t, 51, 6, 0)
	e := NewEngine(sched, 1, NewRelayTarget(n))
	if err := e.Attach(&RelayCrash{Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(&RelayCrash{Rate: 2}); err == nil {
		t.Fatal("duplicate process name accepted")
	}
	if err := e.Attach(&RelayCrash{Rate: 2, Label: "relay-crash-2"}); err != nil {
		t.Fatalf("labeled duplicate rejected: %v", err)
	}
}

func TestEngineStopFreezesProcesses(t *testing.T) {
	sched, n := newTestNetwork(t, 61, 8, 10)
	e := NewEngine(sched, 3, NewRelayTarget(n))
	if err := e.Attach(&RelayCrash{Rate: 50}); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(2 * time.Hour)
	e.Stop()
	frozen := len(e.Trace())
	sched.RunFor(12 * time.Hour)
	if got := len(e.Trace()); got != frozen {
		t.Fatalf("trace grew after Stop: %d -> %d", frozen, got)
	}
}

func TestSpecAttachComposition(t *testing.T) {
	sched, n := newTestNetwork(t, 71, 12, 10)
	spec := FaultSpec{CrashRate: 10, RestartH: 0.5, RetryAttempts: 2}
	e := NewEngine(sched, 5, NewRelayTarget(n))
	if err := spec.Attach(e, ""); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(12 * time.Hour)
	e.Stop()
	crashed, _, _ := e.FaultCounts()
	if crashed == 0 {
		t.Fatal("composed spec never crashed a relay")
	}
	// A targeted spec needs a target at attach time.
	bad := FaultSpec{OutageFrac: 0.2, OutageTargeted: true}
	if err := bad.Attach(NewEngine(sched, 6, NewRelayTarget(n)), ""); err == nil {
		t.Fatal("targeted spec attached without a target service")
	}
	// A retry-only spec attaches nothing but is a valid baseline.
	baseline := FaultSpec{RetryAttempts: 4}
	e2 := NewEngine(sched, 7, NewRelayTarget(n))
	if err := baseline.Attach(e2, ""); err != nil {
		t.Fatal(err)
	}
	if len(e2.Trace()) != 0 {
		t.Fatal("retry-only spec produced fault events")
	}
	if rp := baseline.RetryPolicy(); !rp.Enabled() || rp.MaxAttempts != 4 {
		t.Fatalf("retry policy not realized: %+v", rp)
	}
}

// runGoldenFaultPlane runs both fault processes against one network
// with a hosted service that fresh clients dial every half hour, and
// returns the engine's trace.
func runGoldenFaultPlane(t *testing.T) []Event {
	t.Helper()
	sched, n := newTestNetwork(t, 81, 16, 10)
	hs, err := tor.NewProxy(n).Host(tor.IdentityFromSeed([32]byte{81}), func(*tor.Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sched, 29, NewRelayTarget(n))
	for _, p := range []Process{
		&RelayCrash{Rate: 2, MeanRestart: time.Hour},
		&HSDirOutage{After: 2 * time.Hour, Frac: 0.3, Service: hs.Onion()},
	} {
		if err := e.Attach(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		sched.After(time.Duration(i)*30*time.Minute, func() {
			tor.NewProxy(n).DialAsync(hs.Onion(), func(c *tor.Conn, err error) {
				if err == nil {
					c.Close()
				}
			})
		})
	}
	sched.RunFor(6 * time.Hour)
	e.Stop()
	return e.Trace()
}

// TestFaultTraceGolden pins the fault plane's schedule to a recorded
// trace. The other tests compare runs with each other, so a change of
// substream namespace or draw order would pass them; it fails here.
func TestFaultTraceGolden(t *testing.T) {
	got, err := EncodeTrace(runGoldenFaultPlane(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fault-trace.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("fault trace drifted from testdata/fault-trace.golden.json; got:\n%s", got)
	}
}

func TestFaultTraceRoundTripsButDoesNotReplay(t *testing.T) {
	trace := runGoldenFaultPlane(t)
	enc, err := EncodeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(enc)
	if err != nil {
		t.Fatalf("relay-fault trace does not parse: %v", err)
	}
	if enc2, _ := EncodeTrace(parsed); !bytes.Equal(enc, enc2) {
		t.Fatal("encode/parse/encode is not a fixed point for a relay-fault trace")
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Spec{Process: "replay", TraceFile: path}.Build()
	if err == nil || !strings.Contains(err.Error(), "replay plays back only join, leave and takedown") {
		t.Fatalf("replay over a relay-fault trace: got %v, want a membership-kind error", err)
	}
}

func TestFaultProcessesRejectMembershipTargets(t *testing.T) {
	sched := sim.NewScheduler()
	e := NewEngine(sched, 1, &countTarget{n: 10})
	for _, p := range []Process{&RelayCrash{Rate: 1}, &HSDirOutage{Frac: 0.5}} {
		if err := e.Attach(p); err == nil || !strings.Contains(err.Error(), "not a relay network") {
			t.Errorf("%s on a bot population: got %v", p.Name(), err)
		}
	}
}
