package tor

import (
	"errors"
	"testing"
	"time"

	"onionbots/internal/sim"
)

// newTestNetwork bootstraps a network with numRelays relays, a published
// consensus, and everyone holding the HSDir flag.
func newTestNetwork(t *testing.T, seed uint64, numRelays int) *Network {
	t.Helper()
	sched := sim.NewScheduler()
	n := NewNetwork(sched, sim.NewRNG(seed), Config{})
	if err := n.Bootstrap(numRelays); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBootstrapGrantsHSDirAfterUptime(t *testing.T) {
	n := newTestNetwork(t, 1, 10)
	c := n.Consensus()
	if c.NumRelays() != 10 {
		t.Fatalf("consensus relays = %d, want 10", c.NumRelays())
	}
	if c.NumHSDirs() != 10 {
		t.Fatalf("HSDirs = %d, want 10 (all relays past 25h uptime)", c.NumHSDirs())
	}
}

func TestYoungRelayLacksHSDirFlag(t *testing.T) {
	n := newTestNetwork(t, 2, 8)
	young, err := n.AddRelay()
	if err != nil {
		t.Fatal(err)
	}
	n.PublishConsensus()
	if n.Consensus().IsHSDir(young.Fingerprint()) {
		t.Fatal("relay with zero uptime received HSDir flag")
	}
	// After 24h59m: still no flag.
	n.Scheduler().RunFor(24*time.Hour + 59*time.Minute)
	n.PublishConsensus()
	if n.Consensus().IsHSDir(young.Fingerprint()) {
		t.Fatal("relay with <25h uptime received HSDir flag")
	}
	// Crossing 25h: flagged.
	n.Scheduler().RunFor(2 * time.Minute)
	n.PublishConsensus()
	if !n.Consensus().IsHSDir(young.Fingerprint()) {
		t.Fatal("relay with >25h uptime denied HSDir flag")
	}
}

func TestConsensusScheduleRepublishesHourly(t *testing.T) {
	n := newTestNetwork(t, 3, 5)
	before := n.Stats().ConsensusCount
	n.Scheduler().RunFor(5 * time.Hour)
	after := n.Stats().ConsensusCount
	if got := after - before; got != 5 {
		t.Fatalf("consensus published %d times in 5h, want 5", got)
	}
}

func TestResponsibleHSDirsAreConsecutiveFromRingPosition(t *testing.T) {
	n := newTestNetwork(t, 4, 20)
	c := n.Consensus()
	var id DescriptorID // all zeros: before every fingerprint w.h.p.
	got := c.ResponsibleHSDirs(id)
	if len(got) != HSDirsPerReplica {
		t.Fatalf("responsible HSDirs = %d, want %d", len(got), HSDirsPerReplica)
	}
	// They must be the first three HSDirs in ring order.
	for i := 0; i < HSDirsPerReplica; i++ {
		if got[i] != c.hsdirs[i] {
			t.Fatalf("responsible[%d] = %s, want %s", i, got[i], c.hsdirs[i])
		}
	}
}

func TestResponsibleHSDirsWrapAroundRing(t *testing.T) {
	n := newTestNetwork(t, 5, 20)
	c := n.Consensus()
	var id DescriptorID
	for i := range id {
		id[i] = 0xff // after every fingerprint: wraps to ring start
	}
	got := c.ResponsibleHSDirs(id)
	if len(got) != HSDirsPerReplica {
		t.Fatalf("responsible HSDirs = %d, want %d", len(got), HSDirsPerReplica)
	}
	for i := 0; i < HSDirsPerReplica; i++ {
		if got[i] != c.hsdirs[i] {
			t.Fatalf("wrap: responsible[%d] = %s, want %s", i, got[i], c.hsdirs[i])
		}
	}
}

func TestPickRelaysExcludesAndBounds(t *testing.T) {
	n := newTestNetwork(t, 6, 10)
	c := n.Consensus()
	exclude := map[Fingerprint]struct{}{c.Relays[0].FP: {}}
	got := c.PickRelays(n.RNG(), 9, exclude)
	if len(got) != 9 {
		t.Fatalf("picked %d relays, want 9", len(got))
	}
	for _, fp := range got {
		if _, bad := exclude[fp]; bad {
			t.Fatal("excluded relay was picked")
		}
	}
	if got := c.PickRelays(n.RNG(), 100, nil); len(got) != 10 {
		t.Fatalf("over-asking returned %d, want all 10", len(got))
	}
}

func TestBootstrapRejectsTooFewRelays(t *testing.T) {
	n := NewNetwork(sim.NewScheduler(), sim.NewRNG(1), Config{})
	if err := n.Bootstrap(2); !errors.Is(err, ErrNotEnoughRelays) {
		t.Fatalf("Bootstrap(2) error = %v, want ErrNotEnoughRelays", err)
	}
}

func TestInjectRelayAtFingerprintRejectsDuplicates(t *testing.T) {
	n := newTestNetwork(t, 7, 5)
	fp := Fingerprint{42}
	if _, err := n.InjectRelayAtFingerprint(fp); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InjectRelayAtFingerprint(fp); err == nil {
		t.Fatal("duplicate fingerprint injection accepted")
	}
}

// TestRemoveRelayKeepsLookupsAndConsensusExact removes every third relay,
// including the first and last inserted: lookups must stay exact and
// the next consensus must list exactly the live relays.
func TestRemoveRelayKeepsLookupsAndConsensusExact(t *testing.T) {
	sched := sim.NewScheduler()
	n := NewNetwork(sched, sim.NewRNG(5), Config{})
	var fps []Fingerprint
	for i := 0; i < 30; i++ {
		r, err := n.AddRelay()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, r.Fingerprint())
	}
	sched.RunFor(26 * time.Hour)
	removed := map[Fingerprint]bool{}
	for i := 0; i < len(fps); i += 3 {
		n.RemoveRelay(fps[i])
		removed[fps[i]] = true
	}
	if n.NumRelays() != 20 {
		t.Fatalf("NumRelays = %d, want 20", n.NumRelays())
	}
	for _, fp := range fps {
		got := n.Relay(fp)
		if removed[fp] && got != nil {
			t.Fatalf("removed relay %s still resolves", fp)
		}
		if !removed[fp] && (got == nil || got.Fingerprint() != fp) {
			t.Fatalf("live relay %s resolves to %v", fp, got)
		}
	}
	c := n.PublishConsensus()
	if c.NumRelays() != 20 {
		t.Fatalf("consensus lists %d relays, want 20", c.NumRelays())
	}
	for _, ri := range c.Relays {
		if removed[ri.FP] {
			t.Fatalf("consensus lists removed relay %s", ri.FP)
		}
		if !c.IsHSDir(ri.FP) {
			t.Fatalf("mature relay %s lost HSDir flag", ri.FP)
		}
	}
	for fp := range removed {
		if c.IsHSDir(fp) {
			t.Fatalf("removed relay %s has HSDir flag", fp)
		}
	}
}
