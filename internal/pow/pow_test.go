package pow

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestSolveVerifyRoundTrip(t *testing.T) {
	for _, bits := range []uint8{0, 1, 4, 8, 12, 16} {
		challenge := []byte{1, 2, 3, byte(bits)}
		nonce, hashes := Solve(challenge, bits)
		if !Verify(challenge, nonce, bits) {
			t.Fatalf("bits=%d: solved nonce fails verification", bits)
		}
		if bits > 0 && hashes == 0 {
			t.Fatalf("bits=%d: zero hashes reported", bits)
		}
	}
}

func TestVerifyRejectsWrongNonceAndOverclaim(t *testing.T) {
	challenge := []byte("challenge")
	nonce, _ := Solve(challenge, 8)
	if Verify(challenge, nonce+1, 8) && Verify(challenge, nonce+2, 8) && Verify(challenge, nonce+3, 8) {
		t.Fatal("arbitrary nonces keep verifying; puzzle is broken")
	}
	if Verify(challenge, nonce, MaxDifficulty+1) {
		t.Fatal("difficulty above MaxDifficulty accepted")
	}
	if !Verify(challenge, 12345, 0) {
		t.Fatal("zero difficulty must always verify")
	}
}

func TestSolveCostGrowsWithDifficulty(t *testing.T) {
	challenge := []byte("cost")
	var prev uint64
	for _, bits := range []uint8{4, 8, 12} {
		total := uint64(0)
		for i := 0; i < 8; i++ {
			_, h := Solve(append(challenge, byte(i)), bits)
			total += h
		}
		if total <= prev {
			t.Fatalf("cost at %d bits (%d) not above previous (%d)", bits, total, prev)
		}
		prev = total
	}
	if ExpectedHashes(10) != 1024 {
		t.Fatalf("ExpectedHashes(10) = %v", ExpectedHashes(10))
	}
}

func TestSolveCostMatchesExpectation(t *testing.T) {
	// Average solve cost at 8 bits should be near 2^8 = 256.
	challenge := []byte("expectation")
	total := uint64(0)
	const trials = 64
	for i := 0; i < trials; i++ {
		_, h := Solve(append(challenge, byte(i), byte(i>>8)), 8)
		total += h
	}
	avg := float64(total) / trials
	if avg < 64 || avg > 1024 {
		t.Fatalf("average cost at 8 bits = %.0f, want within [64, 1024]", avg)
	}
}

// streamDigest is the streaming-hash construction digest replaced:
// SHA-256 over challenge, then the big-endian nonce.
func streamDigest(challenge []byte, nonce uint64) []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], nonce)
	h := sha256.New()
	h.Write(challenge)
	h.Write(n[:])
	return h.Sum(nil)
}

func TestDigestMatchesStreamingHash(t *testing.T) {
	cases := []struct {
		challenge []byte
		nonce     uint64
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 1},
		{[]byte("pow-challenge:abcdefghijklmnop.onion"), 1 << 40},
		{bytes.Repeat([]byte{0xff}, 64), ^uint64(0)},
	}
	for _, c := range cases {
		buf := preimage(c.challenge)
		// Reusing one buffer across nonces must not leak a stale nonce.
		digest(buf, c.nonce+1)
		if got := digest(buf, c.nonce); !bytes.Equal(got[:], streamDigest(c.challenge, c.nonce)) {
			t.Fatalf("digest(%x, %d) differs from the streaming hash", c.challenge, c.nonce)
		}
	}
	// Challenge minting hashes its seed in a buffer with the nonce tail
	// built in; the challenge bytes must be what the streaming hash gives.
	a := NewAdmission(0, 0, 0, 0)
	onion := "abcdefghijklmnop.onion"
	got := a.mintChallenge(onion)
	seed := append([]byte("pow-challenge:"+onion), 1, 0, 0, 0)
	if want := streamDigest(seed, 1)[:16]; !bytes.Equal(got, want) {
		t.Fatalf("mintChallenge = %x, want %x", got, want)
	}
}

func TestLeadingZeroBitsProperty(t *testing.T) {
	err := quick.Check(func(challenge []byte, nonce uint64) bool {
		d := digest(preimage(challenge), nonce)
		lz := leadingZeroBits(d)
		if lz < 0 || lz > 256 {
			return false
		}
		// Definitional check against a bit-by-bit count.
		count := 0
		for _, b := range d {
			if b == 0 {
				count += 8
				continue
			}
			for mask := byte(0x80); mask != 0; mask >>= 1 {
				if b&mask != 0 {
					return lz == count
				}
				count++
			}
		}
		return lz == count
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionChallengeResponse(t *testing.T) {
	ad := NewAdmission(8, 2, 24, time.Hour)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)

	// First contact: challenged.
	ok, ch, bits := ad.Vet("bot-a", 0, 0, now)
	if ok || ch == nil || bits != 8 {
		t.Fatalf("first Vet = (%v, %v, %d), want challenge at 8 bits", ok, ch, bits)
	}
	// Solve and retry: admitted.
	nonce, _ := Solve(ch, bits)
	ok, _, _ = ad.Vet("bot-a", nonce, bits, now)
	if !ok {
		t.Fatal("valid proof rejected")
	}
	// The challenge is consumed: replaying the proof fails.
	ok, _, _ = ad.Vet("bot-a", nonce, bits, now)
	if ok {
		t.Fatal("replayed proof admitted")
	}
}

func TestAdmissionEscalates(t *testing.T) {
	ad := NewAdmission(8, 2, 24, time.Hour)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		_, ch, bits := ad.Vet(name, 0, 0, now)
		want := uint8(8 + 2*i)
		if bits != want {
			t.Fatalf("acceptance %d: required bits = %d, want %d", i, bits, want)
		}
		nonce, _ := Solve(ch, bits)
		if ok, _, _ := ad.Vet(name, nonce, bits, now); !ok {
			t.Fatalf("acceptance %d failed", i)
		}
	}
	// Outside the window the difficulty relaxes back to base.
	if got := ad.RequiredBits(now.Add(2 * time.Hour)); got != 8 {
		t.Fatalf("difficulty after window = %d, want 8", got)
	}
	// Escalation saturates at MaxBits.
	ad2 := NewAdmission(20, 10, 24, time.Hour)
	ad2.accepts = append(ad2.accepts, now, now, now)
	if got := ad2.RequiredBits(now); got != 24 {
		t.Fatalf("saturated difficulty = %d, want 24", got)
	}
}

func BenchmarkSolve12Bits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Solve([]byte{byte(i), byte(i >> 8)}, 12)
	}
}

// TestAdmissionChallengeTableBounded is the clone-flood regression: a
// SOAP-style attacker minting a fresh onion per request must not grow
// the unsolved-challenge table without bound — exactly the adversary
// the gate prices out used to leak one map entry per clone forever.
func TestAdmissionChallengeTableBounded(t *testing.T) {
	ad := NewAdmission(8, 2, 24, time.Hour)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5000; i++ {
		onion := fmt.Sprintf("clone-%04d.onion", i)
		if ok, ch, _ := ad.Vet(onion, 0, 0, now); ok || ch == nil {
			t.Fatal("proofless first contact must be challenged, not admitted")
		}
		now = now.Add(time.Second)
	}
	if got := ad.PendingChallenges(); got > ad.MaxPending {
		t.Fatalf("flood grew the challenge table to %d entries, cap is %d", got, ad.MaxPending)
	}
	if got := ad.PendingChallenges(); got == 0 {
		t.Fatal("cap eviction emptied the table entirely")
	}
}

// TestAdmissionExpiresUnsolvedChallenges pins the time-based path: a
// burst of never-returning requesters is swept out one Window later.
func TestAdmissionExpiresUnsolvedChallenges(t *testing.T) {
	ad := NewAdmission(8, 2, 24, time.Hour)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		ad.Vet(fmt.Sprintf("ghost-%d.onion", i), 0, 0, now)
	}
	if got := ad.PendingChallenges(); got != 100 {
		t.Fatalf("expected 100 pending challenges, got %d", got)
	}
	// A single request far past the window triggers the sweep.
	later := now.Add(2 * time.Hour)
	ad.Vet("fresh.onion", 0, 0, later)
	if got := ad.PendingChallenges(); got != 1 {
		t.Fatalf("stale challenges survived the sweep: %d pending, want 1 (the fresh requester)", got)
	}
}

// TestAdmissionHonestFlowSurvivesExpiry pins that the honest
// challenge-solve-retry flow still works, including after an eviction
// forced a re-challenge.
func TestAdmissionHonestFlowSurvivesExpiry(t *testing.T) {
	ad := NewAdmission(8, 2, 24, time.Hour)
	ad.MaxPending = 4
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	ok, ch, bits := ad.Vet("honest.onion", 0, 0, now)
	if ok {
		t.Fatal("admitted without proof")
	}
	// A burst of strangers evicts the honest bot's pending challenge.
	for i := 0; i < 10; i++ {
		ad.Vet(fmt.Sprintf("stranger-%d.onion", i), 0, 0, now.Add(time.Second))
	}
	// Its solved proof no longer matches a pending challenge; it gets a
	// fresh one and succeeds on the retry.
	nonce, _ := Solve(ch, bits)
	ok, ch2, bits2 := ad.Vet("honest.onion", nonce, bits, now.Add(time.Minute))
	if ok {
		t.Fatal("stale proof accepted after eviction")
	}
	if ch2 == nil {
		t.Fatal("no re-challenge after eviction")
	}
	nonce2, _ := Solve(ch2, bits2)
	if ok, _, _ := ad.Vet("honest.onion", nonce2, bits2, now.Add(2*time.Minute)); !ok {
		t.Fatal("fresh proof rejected")
	}
}
