package tor

import (
	"crypto/ed25519"
	"errors"
	"time"
)

// ErrNotHSDir reports a descriptor operation against a relay that does
// not currently hold the HSDir flag.
var ErrNotHSDir = errors.New("tor: relay is not an HSDir")

// ErrNoSuchCircuit reports a cell for an unknown circuit id.
var ErrNoSuchCircuit = errors.New("tor: no such circuit")

// RelayStats counts the observable work a relay performed. The
// simulator's "measurement" story leans on these: they are what a
// network observer positioned at the relay could count.
type RelayStats struct {
	CellsRelayed      int
	DescriptorsStored int
	DescriptorsServed int
	IntrosForwarded   int
	RendezvousJoins   int
}

// Relay is one simulated onion router.
type Relay struct {
	id       *Identity
	fp       Fingerprint
	net      *Network
	joined   time.Time
	orderIdx int // position in Network.order, maintained by swap-remove
	stats    RelayStats
	// malicious marks an adversary-controlled relay (Section VI-A): it
	// accepts descriptor uploads but refuses to serve them, denying
	// access to the hidden service.
	malicious bool

	// circs lists the circuits through this relay, oldest first.
	// Circuit ids grow network-wide, so appending at build time keeps
	// the list in id order: the order RemoveRelay destroys them in.
	circs circList[relayCirc, *relayCirc]
	// introByService maps a hidden service's identifier to the circuit
	// over which the service asked this relay to act as an introduction
	// point.
	introByService map[ServiceID]*relayCirc
	// rendByCookie maps a rendezvous cookie to the waiting client
	// circuit.
	rendByCookie map[[cookieSize]byte]*relayCirc
	// store caches hidden-service descriptors when this relay is an
	// HSDir (store.go).
	store map[DescriptorID]*Descriptor
}

const cookieSize = 16

// relayCirc is one relay's hop of a circuit. A circuit's hops share one
// slab (originCirc.hops) and point at each other, so a cell walks from
// hop to hop without a lookup; closed marks a hop whose state its relay
// has dropped, and every handler ignores cells for it.
type relayCirc struct {
	id     uint64
	relay  *Relay
	prev   *relayCirc  // nil at the first hop
	next   *relayCirc  // nil at the terminal hop
	origin *originCirc // non-nil only at the first hop
	// linked is the partner circuit once this relay, acting as a
	// rendezvous point, has joined two circuits.
	linked *relayCirc
	// introService, when non-zero, marks this as a service-side intro
	// circuit for that service.
	introService ServiceID
	// cookie is the rendezvous cookie this (terminal) hop last parked
	// under, so dropping the circuit can release its rendByCookie entry.
	cookie [cookieSize]byte
	hop    int32 // this relay's position on the path; its pad slot
	closed bool
	circLinks[relayCirc]
}

func (rc *relayCirc) links() *circLinks[relayCirc] { return &rc.circLinks }

// circLinks are the intrusive list pointers a circuit carries.
type circLinks[T any] struct{ older, newer *T }

// circNode is a circuit type that carries circLinks.
type circNode[T any] interface {
	*T
	links() *circLinks[T]
}

// circList is an intrusive doubly linked list of circuits in build
// order. Relays and proxies keep their live circuits in one, so building
// and dropping a circuit costs a few pointer writes and no map churn.
type circList[T any, P circNode[T]] struct{ head, tail *T }

func (l *circList[T, P]) push(c *T) {
	h := P(c).links()
	h.older, h.newer = l.tail, nil
	if l.tail != nil {
		P(l.tail).links().newer = c
	} else {
		l.head = c
	}
	l.tail = c
}

func (l *circList[T, P]) remove(c *T) {
	h := P(c).links()
	if h.older != nil {
		P(h.older).links().newer = h.newer
	} else {
		l.head = h.newer
	}
	if h.newer != nil {
		P(h.newer).links().older = h.older
	} else {
		l.tail = h.older
	}
	h.older, h.newer = nil, nil
}

// Fingerprint returns the relay identity digest.
func (r *Relay) Fingerprint() Fingerprint { return r.fp }

// Stats returns a copy of the relay's counters.
func (r *Relay) Stats() RelayStats { return r.stats }

// SetMalicious toggles adversarial descriptor suppression.
func (r *Relay) SetMalicious(v bool) { r.malicious = v }

// Uptime reports how long the relay has been part of the network.
func (r *Relay) Uptime(now time.Time) time.Duration { return now.Sub(r.joined) }

// isHSDir reports whether the relay holds the HSDir flag in the current
// consensus.
func (r *Relay) isHSDir() bool {
	c := r.net.Consensus()
	if c == nil {
		return false
	}
	return c.IsHSDir(r.fp)
}

// receiveForward processes a forward-direction wire cell at this hop:
// strip the relay's onion layer, then forward or, at the terminal hop,
// interpret. The cell is processed synchronously hop to hop, so a
// single scratch buffer and pad frame flow through the whole path.
func (rc *relayCirc) receiveForward(wire *[CellSize]byte, pad []byte) {
	if rc.closed {
		return // circuit torn down; drop silently as Tor does
	}
	r := rc.relay
	if r.net.observeCell != nil {
		r.net.observeCell(r, true, wire[8:])
	}
	xorLayer(wire, pad, int(rc.hop))
	r.stats.CellsRelayed++
	r.net.stats.CellsSwitched++
	if rc.next != nil {
		rc.next.receiveForward(wire, pad)
		return
	}
	var cell Cell
	if err := decodeCellView(&cell, wire); err != nil {
		return
	}
	r.handleTerminal(rc, &cell)
}

// receiveBackward processes a backward-direction wire cell arriving from
// the next hop.
func (rc *relayCirc) receiveBackward(wire *[CellSize]byte, pad []byte) {
	if rc.closed {
		return
	}
	if rc.relay.net.observeCell != nil {
		rc.relay.net.observeCell(rc.relay, false, wire[8:])
	}
	rc.relayBackward(wire, pad)
}

// relayBackward adds this hop's onion layer and passes the cell toward
// the origin.
func (rc *relayCirc) relayBackward(wire *[CellSize]byte, pad []byte) {
	xorLayer(wire, pad, int(rc.hop))
	rc.relay.stats.CellsRelayed++
	rc.relay.net.stats.CellsSwitched++
	if rc.prev != nil {
		rc.prev.receiveBackward(wire, pad)
		return
	}
	if rc.origin != nil {
		rc.origin.op.deliverBackward(rc.origin, wire, pad)
	}
}

// sendBackward originates a cell at this (terminal) hop and pushes it
// toward the circuit origin, cutting a pad frame with one layer for this
// hop and each hop before it. payload may alias a forward wire buffer:
// it is copied into the fresh backward buffer before any onion layer
// touches it.
func (rc *relayCirc) sendBackward(cmd Command, flags byte, payload []byte) {
	if rc.closed {
		return
	}
	n := rc.relay.net
	cell := Cell{CircID: rc.id, Cmd: cmd, Flags: flags, Payload: payload}
	wire := n.getWire()
	defer n.putWire(wire)
	if err := cell.encodeInto(wire); err != nil {
		return
	}
	pad := n.getPad(int(rc.hop) + 1)
	defer n.putPad(pad)
	rc.relayBackward(wire, pad)
}

// handleTerminal interprets a cell addressed to this relay.
func (r *Relay) handleTerminal(rc *relayCirc, cell *Cell) {
	switch cell.Cmd {
	case CmdEstablishIntro:
		r.handleEstablishIntro(rc, cell.Payload)
	case CmdIntroduce1:
		r.handleIntroduce1(rc, cell.Payload)
	case CmdEstablishRendezvous:
		r.handleEstablishRendezvous(rc, cell.Payload)
	case CmdRendezvous1:
		r.handleRendezvous1(rc, cell.Payload)
	case CmdData:
		if rc.linked != nil {
			rc.linked.sendBackward(CmdData, cell.Flags, cell.Payload)
		}
	case CmdEnd:
		rc.teardown()
	default:
		// Unknown terminal command: drop.
	}
}

// handleEstablishIntro registers this relay as an introduction point.
// Payload: servicePub(32) || sig(64) where sig covers "intro" || pub.
func (r *Relay) handleEstablishIntro(rc *relayCirc, p []byte) {
	if len(p) != ed25519.PublicKeySize+ed25519.SignatureSize {
		return
	}
	pub := ed25519.PublicKey(p[:ed25519.PublicKeySize])
	sig := p[ed25519.PublicKeySize:]
	if !r.net.verifyIntroBinding(pub, sig) {
		return // refuse to introduce for a key the caller does not hold
	}
	var sid ServiceID
	sum := FingerprintOf(pub)
	copy(sid[:], sum[:10])
	r.introByService[sid] = rc
	rc.introService = sid
}

// introBinding is the byte string an ESTABLISH_INTRO signature covers.
func introBinding(pub ed25519.PublicKey) []byte {
	return append([]byte("establish-intro:"), pub...)
}

// handleIntroduce1 forwards an introduction request to the hidden
// service. Payload: serviceID(10) || rpFP(20) || cookie(16).
func (r *Relay) handleIntroduce1(clientCirc *relayCirc, p []byte) {
	if len(p) != 10+20+cookieSize {
		return
	}
	var sid ServiceID
	copy(sid[:], p[:10])
	introCirc, ok := r.introByService[sid]
	if !ok {
		// Service unknown or stopped: report failure to the client.
		clientCirc.sendBackward(CmdEnd, 0, nil)
		return
	}
	r.stats.IntrosForwarded++
	introCirc.sendBackward(CmdIntroduce2, 0, p[10:])
}

// handleEstablishRendezvous parks a client circuit under its cookie.
func (r *Relay) handleEstablishRendezvous(rc *relayCirc, p []byte) {
	if len(p) != cookieSize {
		return
	}
	copy(rc.cookie[:], p)
	r.rendByCookie[rc.cookie] = rc
}

// handleRendezvous1 joins the service circuit to the waiting client
// circuit and confirms to the client.
func (r *Relay) handleRendezvous1(serviceCirc *relayCirc, p []byte) {
	if len(p) != cookieSize {
		return
	}
	var ck [cookieSize]byte
	copy(ck[:], p)
	clientCirc, ok := r.rendByCookie[ck]
	if !ok {
		serviceCirc.sendBackward(CmdEnd, 0, nil)
		return
	}
	delete(r.rendByCookie, ck)
	if clientCirc.closed {
		serviceCirc.sendBackward(CmdEnd, 0, nil)
		return
	}
	serviceCirc.linked = clientCirc
	clientCirc.linked = serviceCirc
	r.stats.RendezvousJoins++
	clientCirc.sendBackward(CmdRendezvous2, 0, nil)
}

// teardown drops this hop's state and propagates the teardown toward
// the terminal hop and across any rendezvous link. END is a control
// signal: it bypasses onion crypto and every hop drops state on sight.
func (rc *relayCirc) teardown() {
	if rc.closed {
		return
	}
	r := rc.relay
	r.forget(rc)
	if lc := rc.linked; lc != nil && !lc.closed {
		lc.linked = nil
		lc.sendBackward(CmdEnd, 0, nil)
		r.drop(lc)
	}
	if rc.next != nil {
		rc.next.teardown()
	}
}

// drop deletes a circuit's state at this relay, including the cookie
// it waits under as a rendezvous client circuit. A RENDEZVOUS1 for that
// cookie gets END either way (no cookie, or a dead circuit behind it);
// releasing the entry keeps it from pinning the dead circuit's memory.
func (r *Relay) drop(rc *relayCirc) {
	rc.closed = true
	r.circs.remove(rc)
	if rc.next == nil && r.rendByCookie[rc.cookie] == rc {
		delete(r.rendByCookie, rc.cookie)
	}
}

// forget drops a circuit's state at this relay, releasing the
// introduction-point registration it held, if any.
func (r *Relay) forget(rc *relayCirc) {
	r.drop(rc)
	if rc.introService != (ServiceID{}) {
		if cur, ok := r.introByService[rc.introService]; ok && cur == rc {
			delete(r.introByService, rc.introService)
		}
	}
}
