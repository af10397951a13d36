package legacy

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	_ "embed"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
)

// Signer authenticates command payloads the way each surveyed botnet
// did (or did not).
type Signer interface {
	// Name is the Table I label.
	Name() string
	// Sign produces a signature over msg.
	Sign(msg []byte) ([]byte, error)
	// Verify reports whether sig authenticates msg.
	Verify(msg, sig []byte) bool
}

// NullSigner is "no signing": every payload verifies. Miner and Storm
// shipped this way, which is why both were hijackable.
type NullSigner struct{}

var _ Signer = NullSigner{}

// Name implements Signer.
func (NullSigner) Name() string { return "none" }

// Sign returns an empty signature.
func (NullSigner) Sign([]byte) ([]byte, error) { return nil, nil }

// Verify accepts anything.
func (NullSigner) Verify(_, _ []byte) bool { return true }

// RSASigner signs with RSA PKCS#1 v1.5 over SHA-256, at the modulus
// size the botnet used (512 for ZeroAccess v1, 2048 for Zeus).
type RSASigner struct {
	bits int
	priv *rsa.PrivateKey
}

var _ Signer = (*RSASigner)(nil)

// The ZeroAccess v1 and Zeus rows sign with these fixed RSA keys
// (PKCS#1 PEM, generated once with crypto/rsa). They are public test
// keys that protect nothing: Table I audits how each scheme is built,
// not the secrecy of a key, and fixed keys spare every audit an RSA key
// generation whose output and cost vary from run to run.
var (
	//go:embed rsa512.pem
	rsa512PEM string
	//go:embed rsa2048.pem
	rsa2048PEM string
)

// fixedRSASigner parses one of the embedded keys.
func fixedRSASigner(keyPEM string) (*RSASigner, error) {
	block, _ := pem.Decode([]byte(keyPEM))
	if block == nil {
		return nil, errors.New("legacy: embedded RSA key is not PEM")
	}
	priv, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("legacy: embedded RSA key: %w", err)
	}
	return &RSASigner{bits: priv.N.BitLen(), priv: priv}, nil
}

// Name implements Signer.
func (s *RSASigner) Name() string { return fmt.Sprintf("RSA %d", s.bits) }

// Sign implements Signer.
func (s *RSASigner) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return rsa.SignPKCS1v15(nil, s.priv, crypto.SHA256, digest[:])
}

// Verify implements Signer.
func (s *RSASigner) Verify(msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return rsa.VerifyPKCS1v15(&s.priv.PublicKey, crypto.SHA256, digest[:], sig) == nil
}

// Ed25519Signer is the OnionBot-row signer.
type Ed25519Signer struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

var _ Signer = (*Ed25519Signer)(nil)

// NewEd25519Signer derives a signer from the entropy source.
func NewEd25519Signer(random io.Reader) (*Ed25519Signer, error) {
	pub, priv, err := ed25519.GenerateKey(random)
	if err != nil {
		return nil, fmt.Errorf("legacy: ed25519 keygen: %w", err)
	}
	return &Ed25519Signer{pub: pub, priv: priv}, nil
}

// Name implements Signer.
func (*Ed25519Signer) Name() string { return "Ed25519" }

// Sign implements Signer.
func (s *Ed25519Signer) Sign(msg []byte) ([]byte, error) {
	return ed25519.Sign(s.priv, msg), nil
}

// Verify implements Signer.
func (s *Ed25519Signer) Verify(msg, sig []byte) bool {
	return ed25519.Verify(s.pub, msg, sig)
}
