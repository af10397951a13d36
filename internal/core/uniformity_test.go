package core

import (
	"testing"

	"onionbots/internal/botcrypto"
)

// TestAllMessageTypesUniformOnWire is the indistinguishability property
// the paper demands: no relaying party can tell a peering request from
// a ping, a broadcast attack order, or an address rotation by looking
// at the wire. Every sealed protocol message must be exactly the same
// size with uniform-looking content.
func TestAllMessageTypesUniformOnWire(t *testing.T) {
	netKey := botcrypto.NewDRBG([]byte("netkey")).Bytes(32)
	drbg := botcrypto.NewDRBG([]byte("nonces"))

	payloads := map[string][]byte{
		"PeerReq":    (&PeerReq{Onion: "abcdefghij234567.onion", Degree: 4}).Encode(),
		"PeerAck":    (&PeerAck{Accepted: true, Onion: "abcdefghij234567.onion", Degree: 3, Neighbors: []string{"a.onion", "b.onion", "c.onion"}}).Encode(),
		"NoNUpdate":  (&NoNUpdate{Onion: "x.onion", Degree: 2, Neighbors: []string{"y.onion"}}).Encode(),
		"AddrChange": (&AddrChange{OldOnion: "old.onion", NewOnion: "new.onion"}).Encode(),
		"Ping":       nil,
		"Report":     (&Report{Onion: "bot.onion", SealedKB: make([]byte, botcrypto.ECIESSize)}).Encode(),
	}
	sizes := map[string]int{}
	for name, payload := range payloads {
		env := &Envelope{Type: MsgPing, Payload: payload}
		sealed, err := botcrypto.Seal(netKey, env.Encode(), drbg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sizes[name] = len(sealed)
	}
	want := sizes["Ping"]
	for name, size := range sizes {
		if size != want {
			t.Errorf("%s seals to %d bytes, others to %d — size leaks message type", name, size, want)
		}
	}
	if want != botcrypto.SealedSize {
		t.Fatalf("wire size %d != SealedSize %d", want, botcrypto.SealedSize)
	}

	// A directed command's inner seal plus envelope also fits the same
	// outer wire size.
	inner := make([]byte, DirectedSealSize)
	env := &Envelope{Type: MsgDirected, TTL: 8, Payload: inner}
	sealed, err := botcrypto.Seal(netKey, env.Encode(), drbg)
	if err != nil {
		t.Fatalf("directed envelope does not fit the uniform wire size: %v", err)
	}
	if len(sealed) != want {
		t.Fatalf("directed message size %d differs", len(sealed))
	}
}
