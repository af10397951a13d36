package tor

import (
	"errors"
	"math"
	"testing"
	"time"

	"onionbots/internal/sim"
)

func TestOccupyDescriptorRingNeedsUptime(t *testing.T) {
	// Injection alone must not deny service: the adversary relays lack
	// the HSDir flag until 25h of uptime (the paper's key timing
	// constraint for this mitigation).
	n := newTestNetwork(t, 30, 20)
	server := NewProxy(n)
	id := testIdentity(t, 11)
	hs, err := server.Host(id, func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}

	injected, err := OccupyDescriptorRing(n, id.ServiceID(), nil, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(injected) != NumReplicas*HSDirsPerReplica {
		t.Fatalf("injected %d relays, want %d", len(injected), NumReplicas*HSDirsPerReplica)
	}
	n.PublishConsensus()
	for _, r := range injected {
		if n.Consensus().IsHSDir(r.Fingerprint()) {
			t.Fatal("zero-uptime adversary relay received HSDir flag")
		}
	}
	if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
		t.Fatalf("dial failed before adversary relays earned the flag: %v", err)
	}
}

func TestDescriptorDenialWithPrePositionedRelays(t *testing.T) {
	// The full Section VI-A attack: the adversary positions relays for
	// the descriptor ids of a future period, waits out the 25h flag
	// delay, and then suppresses the descriptor — the service becomes
	// unreachable even though it is up and publishing.
	n := NewNetwork(sim.NewScheduler(), sim.NewRNG(31), Config{})
	id := testIdentity(t, 12)
	sid := id.ServiceID()

	// Bootstrap will advance the clock by HSDirUptime+1h = 26h; position
	// the malicious relays for the descriptor ids current at that time.
	adversarial, err := OccupyDescriptorRing(n, sid, nil, n.Now().Add(26*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(20); err != nil {
		t.Fatal(err)
	}
	for _, r := range adversarial {
		if !n.Consensus().IsHSDir(r.Fingerprint()) {
			t.Fatal("pre-positioned adversary relay missing HSDir flag after bootstrap")
		}
	}

	server := NewProxy(n)
	hs, err := server.Host(id, func(*Conn) {})
	if err != nil {
		t.Fatalf("hosting failed: %v", err)
	}
	// Every responsible HSDir is malicious: they accepted the upload
	// but refuse to serve it.
	_, err = NewProxy(n).Dial(hs.Onion())
	if !errors.Is(err, ErrNoDescriptor) {
		t.Fatalf("dial error = %v, want ErrNoDescriptor (descriptor suppressed)", err)
	}

	// The denial is period-scoped: once the descriptor period rolls,
	// the service republishes at fresh ring positions the adversary
	// does not occupy, and reachability returns. This is the
	// re-positioning treadmill the paper describes.
	n.Scheduler().RunFor(25 * time.Hour)
	if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
		t.Fatalf("dial after period roll failed: %v (adversary should be stale)", err)
	}
}

func TestPartialRingOccupationDoesNotDeny(t *testing.T) {
	// Occupying only one replica's positions leaves the other replica
	// serving; redundancy defeats a half-hearted attack.
	n := NewNetwork(sim.NewScheduler(), sim.NewRNG(32), Config{})
	id := testIdentity(t, 13)
	sid := id.ServiceID()
	future := n.Now().Add(26 * time.Hour)
	descID := ComputeDescriptorID(sid, nil, 0, future) // replica 0 only
	for _, fp := range PositionFingerprints(descID, HSDirsPerReplica) {
		relay, err := n.InjectRelayAtFingerprint(fp)
		if err != nil {
			t.Fatal(err)
		}
		relay.SetMalicious(true)
	}
	if err := n.Bootstrap(20); err != nil {
		t.Fatal(err)
	}
	server := NewProxy(n)
	hs, err := server.Host(id, func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
		t.Fatalf("dial failed with only one replica suppressed: %v", err)
	}
}

func TestPositionFingerprintsOrderedAndTight(t *testing.T) {
	var target DescriptorID
	target[0] = 0x80
	fps := PositionFingerprints(target, 3)
	if len(fps) != 3 {
		t.Fatalf("got %d fingerprints", len(fps))
	}
	if fps[0] != Fingerprint(target) {
		t.Fatal("first fingerprint must sit exactly at the target")
	}
	for i := 1; i < len(fps); i++ {
		if !fps[i-1].Less(fps[i]) {
			t.Fatal("fingerprints not strictly increasing")
		}
	}
}

func TestIncrementFingerprintCarries(t *testing.T) {
	var f Fingerprint
	for i := range f {
		f[i] = 0xff
	}
	if incrementFingerprint(f) != (Fingerprint{}) {
		t.Fatal("increment of all-ones should wrap to zero")
	}
	var g Fingerprint
	g[19] = 0xff
	want := Fingerprint{}
	want[18] = 1
	if incrementFingerprint(g) != want {
		t.Fatal("carry propagation broken")
	}
}

func TestExpectedKeySearchTriesScalesWithRingDensity(t *testing.T) {
	sparse := newTestNetwork(t, 33, 10)
	dense := newTestNetwork(t, 34, 200)
	var target DescriptorID
	target[0] = 0x42
	sparseTries := ExpectedKeySearchTries(sparse.Consensus(), target)
	denseTries := ExpectedKeySearchTries(dense.Consensus(), target)
	if !(denseTries > sparseTries) {
		t.Fatalf("denser ring should need more tries: dense=%g sparse=%g",
			denseTries, sparseTries)
	}
	if ExpectedKeySearchTries(nil, target) != math.Inf(1) {
		t.Fatal("nil consensus should be infinite work")
	}
}

func TestVanityAndAddressSpaceModels(t *testing.T) {
	if got := VanityPrefixTries(1); got != 32 {
		t.Fatalf("VanityPrefixTries(1) = %g, want 32", got)
	}
	if got := VanityPrefixTries(8); got != math.Pow(32, 8) {
		t.Fatalf("VanityPrefixTries(8) = %g", got)
	}
	if OnionAddressSpace() != math.Pow(32, 16) {
		t.Fatal("address space must be 32^16 (Section IV-B)")
	}
	// A million keys/sec against an 8-char prefix is still weeks of
	// work — the paper's infeasibility argument.
	d := EstimateVanitySearchDuration(8, 1e6)
	if d < 7*24*time.Hour {
		t.Fatalf("8-char vanity at 1M keys/s = %v, expected weeks", d)
	}
	if EstimateVanitySearchDuration(8, 0) <= 0 {
		t.Fatal("zero rate should saturate, not divide by zero")
	}
}
