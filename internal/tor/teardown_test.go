package tor

import (
	"testing"
	"time"
)

func TestDoubleCloseIsSafe(t *testing.T) {
	n := newTestNetwork(t, 70, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 30), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	conn.Close() // second close must be a no-op
	serverConn.Close()
	n.Scheduler().RunFor(time.Second)
}

func TestSendAfterPeerShutdownFails(t *testing.T) {
	n := newTestNetwork(t, 71, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 31), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	if err := conn.Send([]byte("into the void")); err == nil {
		t.Fatal("send succeeded after peer shutdown")
	}
}

func TestStaleRendezvousCookieFailsDial(t *testing.T) {
	// A service whose intro points are live but whose rendezvous
	// never completes: simulate by stopping the service between
	// descriptor fetch and intro... simplest equivalent: dial twice,
	// the first dial consumed nothing, both must work — then stop and
	// the third fails.
	n := newTestNetwork(t, 72, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 32), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	hs.Stop()
	if _, err := client.Dial(hs.Onion()); err == nil {
		t.Fatal("dial succeeded after Stop")
	}
}

func TestManyConnectionsOneService(t *testing.T) {
	n := newTestNetwork(t, 73, 15)
	server := NewProxy(n)
	var conns []*Conn
	hs, err := server.Host(testIdentity(t, 33), func(c *Conn) { conns = append(conns, c) })
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Conn, 0, 20)
	for i := 0; i < 20; i++ {
		c, err := NewProxy(n).Dial(hs.Onion())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	if len(conns) != 20 {
		t.Fatalf("server accepted %d conns, want 20", len(conns))
	}
	// Each pair is independent: message on conn i arrives only there.
	for i, c := range clients {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Scheduler().RunFor(time.Second)
	for i, sc := range conns {
		got, ok := sc.Recv()
		if !ok || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("conn %d received %v ok=%v", i, got, ok)
		}
		if _, extra := sc.Recv(); extra {
			t.Fatalf("conn %d received a second message", i)
		}
	}
}

func TestCircuitStateCleanedAfterClose(t *testing.T) {
	n := newTestNetwork(t, 74, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 34), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	before := countCircuits(n)
	conn, err := client.Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	during := countCircuits(n)
	if during <= before {
		t.Fatal("dial created no relay circuit state")
	}
	conn.Close()
	after := countCircuits(n)
	if after >= during {
		t.Fatalf("close did not release relay circuit state: %d -> %d", during, after)
	}
}

func countCircuits(n *Network) int {
	total := 0
	for _, ri := range n.Consensus().Relays {
		for rc := n.Relay(ri.FP).circs.head; rc != nil; rc = rc.newer {
			total++
		}
	}
	return total
}

// descriptorsServed sums the serving counter over every relay — the
// observable cost of a client descriptor fetch.
func descriptorsServed(n *Network) int {
	total := 0
	for _, ri := range n.Consensus().Relays {
		if r := n.Relay(ri.FP); r != nil {
			total += r.stats.DescriptorsServed
		}
	}
	return total
}

func TestDescriptorCacheHitAvoidsRefetch(t *testing.T) {
	n := newTestNetwork(t, 80, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 40), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	served := descriptorsServed(n)
	if served == 0 {
		t.Fatal("first dial should have fetched a descriptor")
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Dial(hs.Onion()); err != nil {
			t.Fatalf("cached dial %d: %v", i, err)
		}
	}
	if got := descriptorsServed(n); got != served {
		t.Fatalf("cached dials hit HSDirs: served %d -> %d", served, got)
	}
	// A fresh proxy has no cache and must fetch for itself.
	if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	if got := descriptorsServed(n); got <= served {
		t.Fatal("fresh proxy did not fetch a descriptor")
	}
}

func TestDescriptorCacheInvalidatedByTimePeriodRollover(t *testing.T) {
	n := newTestNetwork(t, 81, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 41), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	sid, _ := ParseOnion(hs.Onion())
	before := TimePeriod(n.Now(), sid)
	// Walk the clock across the next descriptor-id rollover; the hourly
	// republish schedule keeps fresh descriptors at the new ring
	// positions.
	for TimePeriod(n.Now(), sid) == before {
		n.Scheduler().RunFor(time.Hour)
	}
	served := descriptorsServed(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatalf("dial after rollover: %v", err)
	}
	if got := descriptorsServed(n); got == served {
		t.Fatal("rollover did not invalidate the cache: no fresh fetch happened")
	}
	if e, ok := client.descCache[sid]; !ok || e.period == before {
		t.Fatal("cache entry not replaced after rollover")
	}
}

func TestDescriptorCacheStaleIntroPointsFallBackToFreshFetch(t *testing.T) {
	n := newTestNetwork(t, 82, 25)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 42), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	// Kill every introduction point the cached descriptor names. The
	// service repairs its circuits and republishes on the next consensus
	// tick, so the cached descriptor is now stale: its intro points are
	// gone and the stored descriptors no longer match it.
	for _, ip := range hs.IntroPoints() {
		n.RemoveRelay(ip)
	}
	n.Scheduler().RunFor(n.Config().ConsensusInterval + time.Minute)
	served := descriptorsServed(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatalf("dial after intro churn: %v", err)
	}
	if got := descriptorsServed(n); got == served {
		t.Fatal("stale cache entry was used without a fresh fetch")
	}
}

func TestDescriptorCacheInvalidatedOnDialFailure(t *testing.T) {
	n := newTestNetwork(t, 83, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 43), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	if _, err := client.Dial(hs.Onion()); err != nil {
		t.Fatal(err)
	}
	sid, _ := ParseOnion(hs.Onion())
	if _, ok := client.descCache[sid]; !ok {
		t.Fatal("dial did not populate the descriptor cache")
	}
	hs.Stop()
	if _, err := client.Dial(hs.Onion()); err == nil {
		t.Fatal("dial succeeded after Stop")
	}
	if _, ok := client.descCache[sid]; ok {
		t.Fatal("failed dial left the cached descriptor in place")
	}
}

func TestConsensusExcludesNothingWhenAllEligible(t *testing.T) {
	n := newTestNetwork(t, 75, 8)
	c := n.Consensus()
	if c.NumRelays() != 8 || c.NumHSDirs() != 8 {
		t.Fatalf("consensus %d relays / %d hsdirs, want 8/8", c.NumRelays(), c.NumHSDirs())
	}
	// Fingerprints must be strictly sorted (ring order).
	for i := 1; i < len(c.Relays); i++ {
		if !c.Relays[i-1].FP.Less(c.Relays[i].FP) {
			t.Fatal("consensus not sorted by fingerprint")
		}
	}
}
