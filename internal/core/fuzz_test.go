package core

import (
	"reflect"
	"testing"
	"time"

	"onionbots/internal/botcrypto"
)

// wireCodecs lists every decoder of the bot wire format with the
// encoder that inverts it.
var wireCodecs = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	{"Envelope", func(b []byte) (any, error) { return DecodeEnvelope(b) }, func(v any) []byte { return v.(*Envelope).Encode() }},
	{"Command", func(b []byte) (any, error) { return DecodeCommand(b) }, func(v any) []byte { return v.(*Command).Encode() }},
	{"PeerReq", func(b []byte) (any, error) { return DecodePeerReq(b) }, func(v any) []byte { return v.(*PeerReq).Encode() }},
	{"PeerAck", func(b []byte) (any, error) { return DecodePeerAck(b) }, func(v any) []byte { return v.(*PeerAck).Encode() }},
	{"NoNUpdate", func(b []byte) (any, error) { return DecodeNoNUpdate(b) }, func(v any) []byte { return v.(*NoNUpdate).Encode() }},
	{"AddrChange", func(b []byte) (any, error) { return DecodeAddrChange(b) }, func(v any) []byte { return v.(*AddrChange).Encode() }},
	{"Report", func(b []byte) (any, error) { return DecodeReport(b) }, func(v any) []byte { return v.(*Report).Encode() }},
}

// FuzzDecodeWire feeds each input to every wire decoder. No decoder may
// panic, and whatever one accepts must survive a round trip:
// decode(encode(decode(x))) equals decode(x).
func FuzzDecodeWire(f *testing.F) {
	issued := time.Unix(1421193600, 0).UTC()
	token := &botcrypto.Token{RenterPub: []byte("renter-pub"), Expiry: issued.Add(time.Hour), Whitelist: []string{"ddos", "spam"}, Sig: []byte("token-sig")}
	for _, seed := range [][]byte{
		(&Envelope{Type: MsgPeerReq, MsgID: [16]byte{1, 2, 3}, TTL: 4, Payload: []byte("payload")}).Encode(),
		(&Command{Name: "ddos", Args: []byte("target"), IssuedAt: issued, Nonce: [16]byte{9}, Sig: []byte("sig")}).Encode(),
		(&Command{Name: "spam", IssuedAt: issued, Rental: token, Sig: []byte("sig")}).Encode(),
		(&PeerReq{Onion: "abcdefghijklmnop.onion", Degree: 7, ProofNonce: 1 << 40, ProofBits: 12}).Encode(),
		(&PeerAck{Accepted: true, Onion: "a.onion", Degree: 3, Neighbors: []string{"b.onion", "c.onion"}, Challenge: []byte("chal"), RequiredBits: 8}).Encode(),
		(&NoNUpdate{Onion: "a.onion", Degree: 2, Neighbors: []string{"b.onion"}}).Encode(),
		(&AddrChange{OldOnion: "old.onion", NewOnion: "new.onion"}).Encode(),
		(&Report{Onion: "a.onion", SealedKB: []byte("sealed-kb")}).Encode(),
		{},
		{0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range wireCodecs {
			v, err := c.decode(data)
			if err != nil {
				continue
			}
			again, err := c.decode(c.encode(v))
			if err != nil {
				t.Fatalf("%s: re-encoded %+v does not decode: %v", c.name, v, err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("%s: round trip changed %+v into %+v", c.name, v, again)
			}
		}
	})
}
