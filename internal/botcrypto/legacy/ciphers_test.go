package legacy

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestAllCiphersRoundTrip(t *testing.T) {
	ciphers := []Cipher{NullCipher{}, XORCipher{}, ChainedXORCipher{}, RC4Cipher{}}
	key := []byte("sixteen byte key")
	msgs := [][]byte{
		[]byte("a"),
		[]byte("command: ddos example.com for 300s"),
		bytes.Repeat([]byte{0x00}, 100),
		bytes.Repeat([]byte{0xff}, 257),
	}
	for _, c := range ciphers {
		for _, msg := range msgs {
			ct := c.Encrypt(key, msg)
			if len(ct) != len(msg) {
				t.Fatalf("%s: ciphertext length %d != %d", c.Name(), len(ct), len(msg))
			}
			pt := c.Decrypt(key, ct)
			if !bytes.Equal(pt, msg) {
				t.Fatalf("%s: round trip failed", c.Name())
			}
		}
	}
}

func TestRC4KnownAnswer(t *testing.T) {
	// Classic RC4 test vector: key "Key", plaintext "Plaintext".
	got := RC4Cipher{}.Encrypt([]byte("Key"), []byte("Plaintext"))
	want, err := hex.DecodeString("bbf316e8d940af0ad3")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RC4(Key, Plaintext) = %x, want %x", got, want)
	}
	// Second classic vector: key "Wiki", plaintext "pedia".
	got = RC4Cipher{}.Encrypt([]byte("Wiki"), []byte("pedia"))
	want, err = hex.DecodeString("1021bf0420")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RC4(Wiki, pedia) = %x, want %x", got, want)
	}
}

func TestChainedXORDiffersFromPlainXOR(t *testing.T) {
	key := []byte("k3y!")
	msg := []byte("the same message encrypted twice")
	plain := XORCipher{}.Encrypt(key, msg)
	chained := ChainedXORCipher{}.Encrypt(key, msg)
	if bytes.Equal(plain, chained) {
		t.Fatal("chained XOR degenerated to plain XOR")
	}
}

func TestEmptyKeyBehaviour(t *testing.T) {
	msg := []byte("message")
	for _, c := range []Cipher{XORCipher{}, RC4Cipher{}} {
		if !bytes.Equal(c.Decrypt(nil, c.Encrypt(nil, msg)), msg) {
			t.Fatalf("%s: empty-key round trip failed", c.Name())
		}
	}
}

func TestCipherPropertyRoundTrip(t *testing.T) {
	ciphers := []Cipher{XORCipher{}, ChainedXORCipher{}, RC4Cipher{}}
	err := quick.Check(func(key, msg []byte) bool {
		for _, c := range ciphers {
			if !bytes.Equal(c.Decrypt(key, c.Encrypt(key, msg)), msg) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestXORKeyRecovery(t *testing.T) {
	key := []byte("stormkey")
	pt := []byte("GET /cmd HTTP/1.1 beacon")
	ct := XORCipher{}.Encrypt(key, pt)
	got := RecoverXORKey(pt, ct, len(key))
	if !bytes.Equal(got, key) {
		t.Fatalf("recovered %q, want %q", got, key)
	}
	if RecoverXORKey(pt[:3], ct, len(key)) != nil {
		t.Fatal("recovery with insufficient plaintext should fail")
	}
}

func TestChainedXORKeyRecovery(t *testing.T) {
	key := []byte("zeus2048")
	pt := []byte("config block v3 for botnet")
	ct := ChainedXORCipher{}.Encrypt(key, pt)
	got := RecoverChainedXORKey(pt, ct, len(key))
	if !bytes.Equal(got, key) {
		t.Fatalf("recovered %q, want %q", got, key)
	}
}

func TestKeystreamRecoveryDecryptsSecondMessage(t *testing.T) {
	key := []byte("zerokey")
	known := []byte("heartbeat message v1.0 from bot")
	secret := []byte("install module dropper.bin")
	knownCT := RC4Cipher{}.Encrypt(key, known)
	secretCT := RC4Cipher{}.Encrypt(key, secret) // same key -> same keystream
	ks := RecoverKeystream(known, knownCT)
	got := ApplyKeystream(ks, secretCT)
	if !bytes.Equal(got, secret) {
		t.Fatalf("keystream reuse attack failed: %q", got)
	}
}

func TestSignersVerifyAndReject(t *testing.T) {
	rsa512, err := fixedRSASigner(rsa512PEM)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := NewEd25519Signer(newTestDRBG(t))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authenticate me")
	for _, s := range []Signer{rsa512, ed} {
		sig, err := s.Sign(msg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !s.Verify(msg, sig) {
			t.Fatalf("%s: valid signature rejected", s.Name())
		}
		if s.Verify([]byte("other"), sig) {
			t.Fatalf("%s: signature verified for wrong message", s.Name())
		}
		if s.Verify(msg, nil) {
			t.Fatalf("%s: empty signature accepted", s.Name())
		}
	}
	if !(NullSigner{}).Verify(msg, nil) {
		t.Fatal("NullSigner must accept everything (that is its flaw)")
	}
}
