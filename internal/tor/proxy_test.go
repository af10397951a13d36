package tor

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHiddenServiceEndToEnd(t *testing.T) {
	n := newTestNetwork(t, 10, 15)

	server := NewProxy(n)
	var serverConn *Conn
	id := testIdentity(t, 1)
	hs, err := server.Host(id, func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}

	client := NewProxy(n)
	conn, err := client.Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	if serverConn == nil {
		t.Fatal("service handler never invoked")
	}

	// Mutual anonymity: the server must not learn anything about the
	// client; the client knows only the onion address it dialed.
	if serverConn.RemoteOnion() != "" {
		t.Fatalf("server learned client identity %q", serverConn.RemoteOnion())
	}
	if conn.RemoteOnion() != hs.Onion() {
		t.Fatalf("client remote = %q, want %q", conn.RemoteOnion(), hs.Onion())
	}
	if serverConn.LocalOnion() != hs.Onion() {
		t.Fatalf("server local = %q, want %q", serverConn.LocalOnion(), hs.Onion())
	}

	// Client -> server.
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunFor(time.Second)
	got, ok := serverConn.Recv()
	if !ok || !bytes.Equal(got, []byte("ping")) {
		t.Fatalf("server received %q ok=%v, want ping", got, ok)
	}

	// Server -> client.
	if err := serverConn.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunFor(time.Second)
	got, ok = conn.Recv()
	if !ok || !bytes.Equal(got, []byte("pong")) {
		t.Fatalf("client received %q ok=%v, want pong", got, ok)
	}
}

func TestLargeMessageFragmentationAcrossCells(t *testing.T) {
	n := newTestNetwork(t, 11, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 2), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	conn, err := client.Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}

	msg := make([]byte, 4*MaxCellPayload+123) // forces 5 fragments
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunFor(time.Second)
	got, ok := serverConn.Recv()
	if !ok || !bytes.Equal(got, msg) {
		t.Fatalf("fragmented message corrupted (got %d bytes, ok=%v)", len(got), ok)
	}
}

func TestMessageDeliveryUsesHopLatency(t *testing.T) {
	n := newTestNetwork(t, 12, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 3), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("timed")); err != nil {
		t.Fatal(err)
	}
	// 6 hops at 50ms each = 300ms end to end; at 200ms nothing yet.
	n.Scheduler().RunFor(200 * time.Millisecond)
	if _, ok := serverConn.Recv(); ok {
		t.Fatal("message arrived before the end-to-end latency elapsed")
	}
	n.Scheduler().RunFor(200 * time.Millisecond)
	if _, ok := serverConn.Recv(); !ok {
		t.Fatal("message never arrived")
	}
}

func TestConnHandlerDrainsQueue(t *testing.T) {
	n := newTestNetwork(t, 13, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 4), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"a", "b", "c"} {
		if err := conn.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	n.Scheduler().RunFor(time.Second)
	var got []string
	serverConn.SetHandler(func(m []byte) { got = append(got, string(m)) })
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("handler drained %v, want [a b c] in order", got)
	}
	// Subsequent messages go straight to the handler.
	if err := conn.Send([]byte("d")); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunFor(time.Second)
	if len(got) != 4 || got[3] != "d" {
		t.Fatalf("handler missed live message: %v", got)
	}
}

func TestDialUnknownServiceFails(t *testing.T) {
	n := newTestNetwork(t, 14, 15)
	client := NewProxy(n)
	_, err := client.Dial(testIdentity(t, 99).Onion())
	if !errors.Is(err, ErrNoDescriptor) {
		t.Fatalf("dial unknown service error = %v, want ErrNoDescriptor", err)
	}
}

func TestDialStoppedServiceFails(t *testing.T) {
	n := newTestNetwork(t, 15, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 5), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	hs.Stop()
	// The descriptor may still be cached on HSDirs, but the intro
	// points no longer recognize the service.
	_, err = NewProxy(n).Dial(hs.Onion())
	if err == nil {
		t.Fatal("dial of stopped service succeeded")
	}
	if !errors.Is(err, ErrIntroFailed) && !errors.Is(err, ErrNoDescriptor) {
		t.Fatalf("error = %v, want intro failure or missing descriptor", err)
	}
}

func TestConnCloseTearsDownBothSides(t *testing.T) {
	n := newTestNetwork(t, 16, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 6), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if !conn.Closed() {
		t.Fatal("client conn not closed")
	}
	if !serverConn.Closed() {
		t.Fatal("server conn not closed after peer Close")
	}
	if err := conn.Send([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send on closed conn error = %v, want ErrConnClosed", err)
	}
}

func TestManyServicesOnOneProxy(t *testing.T) {
	// SOAP hosts many clone services on one machine; the proxy must
	// support that (IP/.onion decoupling).
	n := newTestNetwork(t, 17, 15)
	host := NewProxy(n)
	var onions []string
	for i := byte(0); i < 10; i++ {
		hs, err := host.Host(testIdentity(t, 20+i), func(*Conn) {})
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		onions = append(onions, hs.Onion())
	}
	client := NewProxy(n)
	for _, onion := range onions {
		if _, err := client.Dial(onion); err != nil {
			t.Fatalf("dial %s: %v", onion, err)
		}
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	n := newTestNetwork(t, 18, 15)
	host := NewProxy(n)
	id := testIdentity(t, 7)
	if _, err := host.Host(id, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Host(id, func(*Conn) {}); !errors.Is(err, ErrServiceExists) {
		t.Fatalf("duplicate host error = %v, want ErrServiceExists", err)
	}
}

// TestRelaysObserveOnlyEncryptedCells checks onion layering on the
// wire: over a rendezvous connection (two 3-hop circuits), every relay
// a message passes receives a body that differs from the plaintext and
// from every other relay's input, in both directions, and the far end
// still decodes the plaintext.
func TestRelaysObserveOnlyEncryptedCells(t *testing.T) {
	n := newTestNetwork(t, 19, 15)
	server := NewProxy(n)
	var serverConn *Conn
	hs, err := server.Host(testIdentity(t, 8), func(c *Conn) { serverConn = c })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewProxy(n).Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		relay   *Relay
		forward bool
		body    []byte
	}
	var obs []seen
	n.observeCell = func(r *Relay, forward bool, body []byte) {
		obs = append(obs, seen{r, forward, append([]byte(nil), body...)})
	}
	check := func(from, to *Conn, msg string) {
		t.Helper()
		obs = obs[:0]
		if err := from.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		var plain [CellSize]byte
		if err := (&Cell{Cmd: CmdData, Payload: []byte(msg)}).encodeInto(&plain); err != nil {
			t.Fatal(err)
		}
		// Forward over the sender's circuit: guard, middle, rendezvous
		// point. Backward over the receiver's circuit the rendezvous
		// point originates the cell, so its middle and guard receive it.
		var fwd, bwd int
		for i, o := range obs {
			if o.forward {
				fwd++
			} else {
				bwd++
			}
			if bytes.Equal(o.body, plain[8:]) {
				t.Fatalf("%q: relay %s (forward=%v) received the plaintext", msg, o.relay.Fingerprint(), o.forward)
			}
			for _, p := range obs[:i] {
				if bytes.Equal(o.body, p.body) {
					t.Fatalf("%q: relays %s and %s received the same ciphertext", msg, p.relay.Fingerprint(), o.relay.Fingerprint())
				}
			}
		}
		if fwd != 3 || bwd != 2 {
			t.Fatalf("%q: observed %d forward and %d backward relay inputs, want 3 and 2", msg, fwd, bwd)
		}
		n.Scheduler().RunFor(time.Second)
		if got, ok := to.Recv(); !ok || string(got) != msg {
			t.Fatalf("endpoint decoded %q ok=%v, want %q", got, ok, msg)
		}
	}
	check(conn, serverConn, "secret payload")
	check(serverConn, conn, "secret reply")
}

// TestCellPlaneAllocatesNothing pins the cipher plane at zero heap
// allocations: the first data cell over each freshly built 3-hop
// circuit, and a backward cell from each circuit's terminal, reuse the
// network's wire buffers and pad frames.
func TestCellPlaneAllocatesNothing(t *testing.T) {
	n := newTestNetwork(t, 23, 15)
	p := NewProxy(n)
	const runs = 50
	circs := make([]*originCirc, runs+1) // AllocsPerRun adds a warm-up call
	for i := range circs {
		path, err := p.pickPath(Fingerprint{})
		if err != nil {
			t.Fatal(err)
		}
		circs[i] = p.buildCircuit(path, purposeClientRend)
	}
	payload := bytes.Repeat([]byte{0xa5}, MaxCellPayload)
	next := 0
	before := n.Stats().CellsSwitched
	if a := testing.AllocsPerRun(runs, func() {
		if err := p.send(circs[next], CmdData, 0, payload); err != nil {
			t.Fatal(err)
		}
		next++
	}); a != 0 {
		t.Errorf("forward data cell: %.1f allocs, want 0", a)
	}
	next = 0
	if a := testing.AllocsPerRun(runs, func() {
		oc := circs[next]
		oc.hops[len(oc.hops)-1].sendBackward(CmdRendezvous2, 0, nil)
		next++
	}); a != 0 {
		t.Errorf("backward cell from the terminal: %.1f allocs, want 0", a)
	}
	if got, want := n.Stats().CellsSwitched-before, 2*3*len(circs); got != want {
		t.Fatalf("cells switched = %d, want %d", got, want)
	}
	for i, oc := range circs {
		if !oc.ready {
			t.Fatalf("circuit %d: RENDEZVOUS2 never reached the origin intact", i)
		}
	}
}

// TestMessageDeliveryAllocatesNothing pins steady-state delivery at
// zero heap allocations: a message sent over an established connection
// is reassembled into a recycled buffer and handed to the handler by
// the connection's bound callback. It first checks that recycling keeps
// content and order intact with messages on two connections in flight
// at once, and that a message stays valid for the whole handler call
// even when the handler's own reply reassembles into a pooled buffer.
func TestMessageDeliveryAllocatesNothing(t *testing.T) {
	n := newTestNetwork(t, 24, 15)
	var got []string
	counting, delivered := false, 0
	hs, err := NewProxy(n).Host(testIdentity(t, 11), func(c *Conn) {
		c.SetHandler(func(m []byte) {
			if counting {
				delivered++
				return
			}
			if err := c.Send([]byte("ack")); err != nil {
				t.Error(err)
			}
			got = append(got, string(m))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var conns [2]*Conn
	for i := range conns {
		if conns[i], err = NewProxy(n).Dial(hs.Onion()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"one", "two", "three", "four"}
	for i, m := range want {
		if err := conns[i%2].Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	n.Scheduler().RunFor(time.Second)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("delivered %q, want %q", got, want)
	}

	counting = true
	msg := bytes.Repeat([]byte{0x5a}, MaxCellPayload)
	latency := n.Config().HopLatency * time.Duration(2*n.Config().PathLen)
	const runs = 50
	if a := testing.AllocsPerRun(runs, func() {
		if err := conns[0].Send(msg); err != nil {
			t.Fatal(err)
		}
		n.Scheduler().RunFor(latency)
	}); a != 0 {
		t.Errorf("message delivery: %.1f allocs, want 0", a)
	}
	if delivered != runs+1 { // AllocsPerRun adds a warm-up call
		t.Fatalf("handler saw %d messages, want %d", delivered, runs+1)
	}
}

func TestShutdownClosesEverything(t *testing.T) {
	n := newTestNetwork(t, 20, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 9), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	client := NewProxy(n)
	conn, err := client.Dial(hs.Onion())
	if err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	// The established conn dies and new dials fail.
	if err := conn.Send([]byte("x")); err == nil {
		n.Scheduler().RunFor(time.Second)
	}
	if _, err := NewProxy(n).Dial(hs.Onion()); err == nil {
		t.Fatal("dial succeeded after host shutdown")
	}
}

func TestDescriptorRepublishAcrossPeriodRoll(t *testing.T) {
	n := newTestNetwork(t, 21, 15)
	server := NewProxy(n)
	hs, err := server.Host(testIdentity(t, 10), func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	// Run two full virtual days: descriptor ids roll, the service must
	// keep republishing to the new responsible HSDirs, and dials must
	// keep working.
	for day := 0; day < 2; day++ {
		n.Scheduler().RunFor(24 * time.Hour)
		if _, err := NewProxy(n).Dial(hs.Onion()); err != nil {
			t.Fatalf("day %d: dial failed after period roll: %v", day+1, err)
		}
	}
}
