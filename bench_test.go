// Data-plane microbenchmarks: onion-address generation, one relayed
// cell, a sealed-message round trip, and a full hidden-service dial.
// Whole-experiment costs are measured by perfbench (`make bench`), whose
// repro-quick workload times every figure and table as task_s.<id>.
package onionbots_test

import (
	"testing"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// BenchmarkVanityOnionSearch measures raw onion-address generation (one
// candidate per op), the unit cost behind the Section IV-B vanity and
// random-probing infeasibility arguments.
func BenchmarkVanityOnionSearch(b *testing.B) {
	rng := sim.NewRNG(1)
	var seed [32]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(seed[:], rng.Bytes(32))
		id := tor.IdentityFromSeed(seed)
		_ = id.ServiceID()
	}
}

// BenchmarkCellRelayHop measures steady-state message delivery: one
// full-cell message pushed end to end over an established rendezvous
// connection — an onion-layered send, three forward hops, a rendezvous
// join, three backward hops, reassembly at the far proxy, and the
// scheduled delivery into the server's handler. Each iteration drains
// the scheduler, so every delivery event fires inside the timed loop.
func BenchmarkCellRelayHop(b *testing.B) {
	sched := sim.NewScheduler()
	n := tor.NewNetwork(sched, sim.NewRNG(2), tor.Config{})
	if err := n.Bootstrap(20); err != nil {
		b.Fatal(err)
	}
	var seed [32]byte
	seed[0] = 2
	delivered := 0
	server := tor.NewProxy(n)
	hs, err := server.Host(tor.IdentityFromSeed(seed), func(c *tor.Conn) {
		c.SetHandler(func([]byte) { delivered++ })
	})
	if err != nil {
		b.Fatal(err)
	}
	conn, err := tor.NewProxy(n).Dial(hs.Onion())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, tor.MaxCellPayload)
	cfg := n.Config()
	latency := cfg.HopLatency * time.Duration(2*cfg.PathLen)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(latency)
		if delivered != i+1 {
			b.Fatalf("after %d sends, %d messages delivered", i+1, delivered)
		}
	}
}

// BenchmarkSealOpenSession measures a seal/open round trip under a
// cached botcrypto.SealKey session — the unit cost of every message a
// bot sends or receives on the overlay.
func BenchmarkSealOpenSession(b *testing.B) {
	drbg := botcrypto.NewDRBG([]byte("bench-session"))
	sk := botcrypto.NewSealKey(drbg.Bytes(32))
	msg := drbg.Bytes(120)
	var cell [botcrypto.SealedSize]byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sk.SealSizedInto(cell[:], msg, drbg); err != nil {
			b.Fatal(err)
		}
		if _, err := sk.Open(cell[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiddenServiceDial measures one full descriptor-fetch +
// introduction + rendezvous handshake on the simulated Tor network.
func BenchmarkHiddenServiceDial(b *testing.B) {
	sched := sim.NewScheduler()
	n := tor.NewNetwork(sched, sim.NewRNG(1), tor.Config{})
	if err := n.Bootstrap(20); err != nil {
		b.Fatal(err)
	}
	var seed [32]byte
	seed[0] = 1
	id := tor.IdentityFromSeed(seed)
	server := tor.NewProxy(n)
	hs, err := server.Host(id, func(*tor.Conn) {})
	if err != nil {
		b.Fatal(err)
	}
	client := tor.NewProxy(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := client.Dial(hs.Onion())
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}
