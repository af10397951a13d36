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

	circuits map[uint64]*relayCirc
	// introByService maps a hidden service's identifier to the circuit
	// over which the service asked this relay to act as an introduction
	// point.
	introByService map[ServiceID]uint64
	// rendByCookie maps a rendezvous cookie to the waiting client
	// circuit.
	rendByCookie map[[cookieSize]byte]uint64
	// store caches hidden-service descriptors when this relay is an
	// HSDir (store.go).
	store map[DescriptorID]*Descriptor
}

const cookieSize = 16

// relayCirc is this relay's per-circuit routing state.
type relayCirc struct {
	hop    int         // this relay's position on the path; its pad slot
	prev   *Relay      // nil when the previous hop is the origin proxy
	origin *OnionProxy // non-nil only at the first hop
	next   *Relay      // nil when this relay is the terminal hop
	// linked is the circuit id of the partner circuit once this relay,
	// acting as a rendezvous point, has joined two circuits. Zero means
	// not linked.
	linked uint64
	// introService, when non-zero, marks this as a service-side intro
	// circuit for that service.
	introService ServiceID
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

// receiveForward processes a forward-direction wire cell: strip this
// relay's onion layer, then forward or, at the terminal hop, interpret.
// The cell is processed synchronously hop to hop, so a single scratch
// buffer and pad frame flow through the whole path.
func (r *Relay) receiveForward(circID uint64, wire *[CellSize]byte, pad []byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return // circuit torn down; drop silently as Tor does
	}
	if r.net.observeCell != nil {
		r.net.observeCell(r, true, wire[8:])
	}
	xorLayer(wire, pad, rc.hop)
	r.stats.CellsRelayed++
	r.net.stats.CellsSwitched++
	if rc.next != nil {
		rc.next.receiveForward(circID, wire, pad)
		return
	}
	var cell Cell
	if err := decodeCellView(&cell, wire); err != nil {
		return
	}
	r.handleTerminal(circID, rc, &cell)
}

// receiveBackward processes a backward-direction wire cell arriving from
// the next hop.
func (r *Relay) receiveBackward(circID uint64, wire *[CellSize]byte, pad []byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	if r.net.observeCell != nil {
		r.net.observeCell(r, false, wire[8:])
	}
	r.relayBackward(circID, rc, wire, pad)
}

// relayBackward adds this relay's onion layer and passes the cell toward
// the origin.
func (r *Relay) relayBackward(circID uint64, rc *relayCirc, wire *[CellSize]byte, pad []byte) {
	xorLayer(wire, pad, rc.hop)
	r.stats.CellsRelayed++
	r.net.stats.CellsSwitched++
	if rc.prev != nil {
		rc.prev.receiveBackward(circID, wire, pad)
		return
	}
	if rc.origin != nil {
		rc.origin.deliverBackward(circID, wire, pad)
	}
}

// sendBackwardFromTerminal originates a cell at this (terminal) relay
// and pushes it toward the circuit origin, cutting a pad frame with one
// layer for this hop and each hop before it. payload may alias a
// forward wire buffer: it is copied into the fresh backward buffer
// before any onion layer touches it.
func (r *Relay) sendBackwardFromTerminal(circID uint64, cmd Command, flags byte, payload []byte) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	cell := Cell{CircID: circID, Cmd: cmd, Flags: flags, Payload: payload}
	wire := r.net.getWire()
	defer r.net.putWire(wire)
	if err := cell.encodeInto(wire); err != nil {
		return
	}
	pad := r.net.getPad(rc.hop + 1)
	defer r.net.putPad(pad)
	r.relayBackward(circID, rc, wire, pad)
}

// handleTerminal interprets a cell addressed to this relay.
func (r *Relay) handleTerminal(circID uint64, rc *relayCirc, cell *Cell) {
	switch cell.Cmd {
	case CmdEstablishIntro:
		r.handleEstablishIntro(circID, rc, cell.Payload)
	case CmdIntroduce1:
		r.handleIntroduce1(circID, cell.Payload)
	case CmdEstablishRendezvous:
		r.handleEstablishRendezvous(circID, cell.Payload)
	case CmdRendezvous1:
		r.handleRendezvous1(circID, rc, cell.Payload)
	case CmdData:
		if rc.linked != 0 {
			if lc, ok := r.circuits[rc.linked]; ok && lc != nil {
				r.sendBackwardFromTerminal(rc.linked, CmdData, cell.Flags, cell.Payload)
			}
		}
	case CmdEnd:
		r.teardown(circID)
	default:
		// Unknown terminal command: drop.
	}
}

// handleEstablishIntro registers this relay as an introduction point.
// Payload: servicePub(32) || sig(64) where sig covers "intro" || pub.
func (r *Relay) handleEstablishIntro(circID uint64, rc *relayCirc, p []byte) {
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
	r.introByService[sid] = circID
	rc.introService = sid
}

// introBinding is the byte string an ESTABLISH_INTRO signature covers.
func introBinding(pub ed25519.PublicKey) []byte {
	return append([]byte("establish-intro:"), pub...)
}

// handleIntroduce1 forwards an introduction request to the hidden
// service. Payload: serviceID(10) || rpFP(20) || cookie(16).
func (r *Relay) handleIntroduce1(clientCirc uint64, p []byte) {
	if len(p) != 10+20+cookieSize {
		return
	}
	var sid ServiceID
	copy(sid[:], p[:10])
	introCirc, ok := r.introByService[sid]
	if !ok {
		// Service unknown or stopped: report failure to the client.
		r.sendBackwardFromTerminal(clientCirc, CmdEnd, 0, nil)
		return
	}
	r.stats.IntrosForwarded++
	r.sendBackwardFromTerminal(introCirc, CmdIntroduce2, 0, p[10:])
}

// handleEstablishRendezvous parks a client circuit under its cookie.
func (r *Relay) handleEstablishRendezvous(circID uint64, p []byte) {
	if len(p) != cookieSize {
		return
	}
	var ck [cookieSize]byte
	copy(ck[:], p)
	r.rendByCookie[ck] = circID
}

// handleRendezvous1 joins the service circuit to the waiting client
// circuit and confirms to the client.
func (r *Relay) handleRendezvous1(serviceCirc uint64, rc *relayCirc, p []byte) {
	if len(p) != cookieSize {
		return
	}
	var ck [cookieSize]byte
	copy(ck[:], p)
	clientCirc, ok := r.rendByCookie[ck]
	if !ok {
		r.sendBackwardFromTerminal(serviceCirc, CmdEnd, 0, nil)
		return
	}
	delete(r.rendByCookie, ck)
	ccirc, ok := r.circuits[clientCirc]
	if !ok {
		r.sendBackwardFromTerminal(serviceCirc, CmdEnd, 0, nil)
		return
	}
	rc.linked = clientCirc
	ccirc.linked = serviceCirc
	r.stats.RendezvousJoins++
	r.sendBackwardFromTerminal(clientCirc, CmdRendezvous2, 0, nil)
}

// teardown drops this relay's state for a circuit and propagates the
// teardown toward the terminal hop and across any rendezvous link. END
// is a control signal: it bypasses onion crypto and every hop drops
// state on sight.
func (r *Relay) teardown(circID uint64) {
	rc, ok := r.circuits[circID]
	if !ok {
		return
	}
	r.forget(circID, rc)
	if rc.linked != 0 {
		if lc, ok := r.circuits[rc.linked]; ok {
			lc.linked = 0
			r.sendBackwardFromTerminal(rc.linked, CmdEnd, 0, nil)
			delete(r.circuits, rc.linked)
		}
	}
	if rc.next != nil {
		rc.next.teardown(circID)
	}
}

// forget deletes a circuit's state at this relay, releasing the
// introduction-point registration it held, if any.
func (r *Relay) forget(circID uint64, rc *relayCirc) {
	delete(r.circuits, circID)
	if rc.introService != (ServiceID{}) {
		if cur, ok := r.introByService[rc.introService]; ok && cur == circID {
			delete(r.introByService, rc.introService)
		}
	}
}
