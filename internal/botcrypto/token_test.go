package botcrypto

import (
	"crypto/ed25519"
	"errors"
	"testing"
	"time"
)

func rentalFixtures(t *testing.T) (masterPub ed25519.PublicKey, masterPriv ed25519.PrivateKey,
	renterPub ed25519.PublicKey, renterPriv ed25519.PrivateKey) {
	t.Helper()
	masterPub, masterPriv, err := ed25519.GenerateKey(NewDRBG([]byte("mallory")))
	if err != nil {
		t.Fatal(err)
	}
	renterPub, renterPriv, err = ed25519.GenerateKey(NewDRBG([]byte("trudy")))
	if err != nil {
		t.Fatal(err)
	}
	return masterPub, masterPriv, renterPub, renterPriv
}

func TestRentalHappyPath(t *testing.T) {
	masterPub, masterPriv, renterPub, renterPriv := rentalFixtures(t)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now.Add(24*time.Hour),
		[]string{"spam", "mine"})

	var nonce [16]byte
	nonce[0] = 1
	cmd := SignRentedCommand(renterPriv, token, "spam", []byte("run 5m"), now, nonce)
	if err := AuthorizeRented(masterPub, cmd, now); err != nil {
		t.Fatalf("legitimate rented command rejected: %v", err)
	}
}

func TestRentalExpiry(t *testing.T) {
	masterPub, masterPriv, renterPub, renterPriv := rentalFixtures(t)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now.Add(time.Hour), []string{"spam"})
	var nonce [16]byte
	cmd := SignRentedCommand(renterPriv, token, "spam", nil, now, nonce)

	if err := AuthorizeRented(masterPub, cmd, now.Add(2*time.Hour)); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("expired token error = %v, want ErrTokenExpired", err)
	}
}

func TestRentalWhitelistEnforced(t *testing.T) {
	masterPub, masterPriv, renterPub, renterPriv := rentalFixtures(t)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now.Add(time.Hour), []string{"mine"})
	var nonce [16]byte
	cmd := SignRentedCommand(renterPriv, token, "ddos", nil, now, nonce)
	if err := AuthorizeRented(masterPub, cmd, now); !errors.Is(err, ErrCmdNotAllowed) {
		t.Fatalf("off-whitelist command error = %v, want ErrCmdNotAllowed", err)
	}
}

func TestRentalForgedTokenRejected(t *testing.T) {
	masterPub, _, renterPub, renterPriv := rentalFixtures(t)
	_, imposterPriv, _ := ed25519.GenerateKey(NewDRBG([]byte("imposter")))
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	// Token signed by an imposter, not the master bots trust.
	token := IssueToken(imposterPriv, renterPub, now.Add(time.Hour), []string{"spam"})
	var nonce [16]byte
	cmd := SignRentedCommand(renterPriv, token, "spam", nil, now, nonce)
	if err := AuthorizeRented(masterPub, cmd, now); !errors.Is(err, ErrTokenForged) {
		t.Fatalf("forged token error = %v, want ErrTokenForged", err)
	}
}

func TestRentalStolenTokenUnusable(t *testing.T) {
	masterPub, masterPriv, renterPub, _ := rentalFixtures(t)
	_, thiefPriv, _ := ed25519.GenerateKey(NewDRBG([]byte("thief")))
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now.Add(time.Hour), []string{"spam"})
	var nonce [16]byte
	// A thief with the token but not the renter's private key.
	cmd := SignRentedCommand(thiefPriv, token, "spam", nil, now, nonce)
	if err := AuthorizeRented(masterPub, cmd, now); !errors.Is(err, ErrCmdForged) {
		t.Fatalf("stolen token error = %v, want ErrCmdForged", err)
	}
}

func TestRentalTamperedWhitelistRejected(t *testing.T) {
	masterPub, masterPriv, renterPub, renterPriv := rentalFixtures(t)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now.Add(time.Hour), []string{"mine"})
	token.Whitelist = append(token.Whitelist, "ddos") // renter self-upgrades
	var nonce [16]byte
	cmd := SignRentedCommand(renterPriv, token, "ddos", nil, now, nonce)
	if err := AuthorizeRented(masterPub, cmd, now); !errors.Is(err, ErrTokenForged) {
		t.Fatalf("tampered whitelist error = %v, want ErrTokenForged", err)
	}
}

func TestTokenWhitelistNormalized(t *testing.T) {
	_, masterPriv, renterPub, _ := rentalFixtures(t)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	token := IssueToken(masterPriv, renterPub, now, []string{"b", "a", "b", "a"})
	if len(token.Whitelist) != 2 || token.Whitelist[0] != "a" || token.Whitelist[1] != "b" {
		t.Fatalf("whitelist = %v, want [a b]", token.Whitelist)
	}
	if !token.Allows("a") || token.Allows("c") {
		t.Fatal("Allows misbehaves")
	}
}

func TestReplayGuard(t *testing.T) {
	g := NewReplayGuard(10 * time.Minute)
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	var n1, n2 [16]byte
	n1[0], n2[0] = 1, 2

	if err := g.Check(n1, now, now); err != nil {
		t.Fatalf("fresh message rejected: %v", err)
	}
	if err := g.Check(n1, now, now.Add(time.Minute)); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay error = %v, want ErrReplay", err)
	}
	if err := g.Check(n2, now, now.Add(20*time.Minute)); !errors.Is(err, ErrStale) {
		t.Fatalf("stale error = %v, want ErrStale", err)
	}
	// Future-dated messages beyond the window are also rejected.
	if err := g.Check(n2, now.Add(time.Hour), now); !errors.Is(err, ErrStale) {
		t.Fatalf("future error = %v, want ErrStale", err)
	}
	if g.Size() != 1 {
		t.Fatalf("cache size = %d, want 1", g.Size())
	}
}
