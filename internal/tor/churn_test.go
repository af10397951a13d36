package tor

import (
	"testing"
	"time"
)

// Relay churn: the "Tor DoSing" half of the paper's takedown story —
// infrastructure failing under the botnet rather than bots being
// cleaned.

func TestRemoveRelayKillsCrossingConnections(t *testing.T) {
	n := newTestNetwork(t, 90, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 40), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunFor(time.Second)
	if _, ok := serverConn.Recv(); !ok {
		t.Fatal("sanity: message lost before churn")
	}

	// Kill every relay that carries circuit state: the connection
	// definitely crossed some of them.
	for _, ri := range append([]RelayInfo(nil), n.Consensus().Relays...) {
		r := n.Relay(ri.FP)
		if r != nil && r.circs.head != nil {
			n.RemoveRelay(ri.FP)
		}
	}
	if !conn.Closed() && conn.Send([]byte("ghost")) == nil {
		t.Fatal("send succeeded across destroyed circuits")
	}
}

func TestRemoveRelayAbsentIsNoop(t *testing.T) {
	n := newTestNetwork(t, 91, 10)
	n.RemoveRelay(Fingerprint{9, 9, 9}) // must not panic
	if n.NumRelays() != 10 {
		t.Fatal("absent removal changed relay count")
	}
}

func TestServiceRepairsIntroPointsAfterChurn(t *testing.T) {
	n := newTestNetwork(t, 92, 20)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 41), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	// Kill every introduction relay of the service.
	for _, ip := range hs.IntroPoints() {
		n.RemoveRelay(ip)
	}
	n.PublishConsensus()
	// The hourly service tick repairs intro circuits and republishes.
	n.Scheduler().RunFor(2 * time.Hour)
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatalf("dial after intro-point churn failed: %v", err)
	}
	conn.Close()
	// The repaired intro points are different relays.
	for _, ip := range hs.IntroPoints() {
		if n.Relay(ip) == nil {
			t.Fatal("descriptor still lists a dead intro relay")
		}
	}
}

func TestConsensusDropsRemovedRelays(t *testing.T) {
	n := newTestNetwork(t, 93, 12)
	victim := n.Consensus().Relays[0].FP
	n.RemoveRelay(victim)
	n.PublishConsensus()
	if n.Consensus().NumRelays() != 11 {
		t.Fatalf("consensus relays = %d, want 11", n.Consensus().NumRelays())
	}
	if n.Consensus().IsHSDir(victim) {
		t.Fatal("removed relay still listed as HSDir")
	}
}

func TestNetworkSurvivesHeavyRelayChurn(t *testing.T) {
	// Remove a third of the relays while services keep operating; after
	// consensus refresh and intro repair, dialing still works.
	n := newTestNetwork(t, 94, 24)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 42), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	relays := append([]RelayInfo(nil), n.Consensus().Relays...)
	for i := 0; i < 8; i++ {
		n.RemoveRelay(relays[i].FP)
		n.Scheduler().RunFor(30 * time.Minute)
	}
	n.Scheduler().RunFor(2 * time.Hour)
	if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
		t.Fatalf("dial after heavy churn failed: %v", err)
	}
}
