package tor

import (
	"testing"
)

func TestProxyPinsEntryGuards(t *testing.T) {
	n := newTestNetwork(t, 95, 20)
	p := NewProxy(n)
	guards := p.Guards()
	if len(guards) != numGuards {
		t.Fatalf("guards = %d, want %d", len(guards), numGuards)
	}
	// The guard set is stable across calls.
	again := p.Guards()
	for i := range guards {
		if guards[i] != again[i] {
			t.Fatal("guard set changed without churn")
		}
	}
	// Every circuit this proxy builds enters through one of its guards.
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 50), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	guardSet := map[Fingerprint]struct{}{}
	for _, g := range guards {
		guardSet[g] = struct{}{}
	}
	for i := 0; i < 5; i++ {
		conn, err := p.Dial(hs.Onion())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	// Inspect the proxy's remaining circuits' first hop.
	for oc := p.circs.head; oc != nil; oc = oc.newer {
		if _, ok := guardSet[oc.hops[0].relay.Fingerprint()]; !ok {
			t.Fatalf("circuit entered via non-guard %s", oc.hops[0].relay.Fingerprint())
		}
	}
}

func TestGuardReplacedAfterDeath(t *testing.T) {
	n := newTestNetwork(t, 96, 20)
	p := NewProxy(n)
	guards := p.Guards()
	n.RemoveRelay(guards[0])
	replacement := p.Guards()
	if len(replacement) != numGuards {
		t.Fatalf("guards = %d after churn, want %d", len(replacement), numGuards)
	}
	for _, g := range replacement {
		if g == guards[0] {
			t.Fatal("dead guard still pinned")
		}
		if n.Relay(g) == nil {
			t.Fatal("replacement guard is dead")
		}
	}
}

func TestDistinctProxiesUseDistinctGuards(t *testing.T) {
	// With 40 relays, two proxies picking 3 guards each should (for
	// this seed) not share the full set — the point of guards is
	// per-client pinning, not a global choice.
	n := newTestNetwork(t, 97, 40)
	a := NewProxy(n).Guards()
	b := NewProxy(n).Guards()
	same := 0
	for _, ga := range a {
		for _, gb := range b {
			if ga == gb {
				same++
			}
		}
	}
	if same == numGuards {
		t.Fatal("two proxies picked identical guard sets")
	}
}
