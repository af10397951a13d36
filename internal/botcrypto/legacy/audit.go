package legacy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"onionbots/internal/botcrypto"
)

// Scheme bundles one botnet's message protection as audited in Table I.
type Scheme struct {
	// Botnet is the family name.
	Botnet string
	// Cipher protects confidentiality (or pretends to).
	Cipher Cipher
	// Signer authenticates commands (or pretends to).
	Signer Signer
	// ReplayProtected marks schemes carrying a nonce+timestamp checked
	// by a ReplayGuard. None of the legacy families had this.
	ReplayProtected bool
}

// processor is a minimal bot-side command handler for a scheme: it
// unwraps the envelope, verifies, decrypts, replay-checks, and records
// executed commands. The auditor attacks it.
type processor struct {
	scheme Scheme
	key    []byte
	guard  *botcrypto.ReplayGuard
	// Executed is the list of command strings the bot ran.
	Executed []string
}

func newProcessor(s Scheme, key []byte) *processor {
	p := &processor{scheme: s, key: key}
	if s.ReplayProtected {
		p.guard = botcrypto.NewReplayGuard(10 * time.Minute)
	}
	return p
}

// envelope layout: sigLen(2) || sig || ciphertext.
func seal(s Scheme, key []byte, plaintext []byte) ([]byte, error) {
	ct := s.Cipher.Encrypt(key, plaintext)
	sig, err := s.Signer.Sign(ct)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 2, 2+len(sig)+len(ct))
	binary.BigEndian.PutUint16(out, uint16(len(sig)))
	out = append(out, sig...)
	out = append(out, ct...)
	return out, nil
}

// errRejected reports a command the bot refused.
var errRejected = errors.New("legacy: command rejected")

// Deliver feeds one wire message to the bot at the given local time.
func (p *processor) Deliver(wire []byte, now time.Time) error {
	if len(wire) < 2 {
		return fmt.Errorf("%w: short envelope", errRejected)
	}
	sigLen := int(binary.BigEndian.Uint16(wire[:2]))
	if len(wire) < 2+sigLen {
		return fmt.Errorf("%w: truncated signature", errRejected)
	}
	sig := wire[2 : 2+sigLen]
	ct := wire[2+sigLen:]
	if !p.scheme.Signer.Verify(ct, sig) {
		return fmt.Errorf("%w: bad signature", errRejected)
	}
	pt := p.scheme.Cipher.Decrypt(p.key, ct)
	if pt == nil {
		return fmt.Errorf("%w: decryption failed", errRejected)
	}
	cmd := pt
	if p.scheme.ReplayProtected {
		if len(pt) < 24 {
			return fmt.Errorf("%w: missing freshness header", errRejected)
		}
		var nonce [16]byte
		copy(nonce[:], pt[:16])
		issued := time.Unix(int64(binary.BigEndian.Uint64(pt[16:24])), 0)
		if err := p.guard.Check(nonce, issued, now); err != nil {
			return fmt.Errorf("%w: %v", errRejected, err)
		}
		cmd = pt[24:]
	}
	p.Executed = append(p.Executed, string(cmd))
	return nil
}

// AuditRow is one regenerated Table I line, extended with the concrete
// attack outcomes the auditor measured.
type AuditRow struct {
	Botnet  string
	Crypto  string
	Signing string
	// Replayable: redelivering a captured command executed it twice.
	Replayable bool
	// KeyRecovered: one known (pt, ct) pair decrypted fresh traffic.
	KeyRecovered bool
	// Forged: an attacker without any legitimate keys got a crafted
	// command executed.
	Forged bool
}

// sealCipher adapts the OnionBot sealed cell to the Cipher interface
// for the comparison row. Encrypt draws nonces from an internal DRBG.
type sealCipher struct {
	rng *botcrypto.DRBG
}

var _ Cipher = (*sealCipher)(nil)

func (*sealCipher) Name() string { return "AES-CTR+HMAC" }

func (c *sealCipher) Encrypt(key, plaintext []byte) []byte {
	out, err := botcrypto.Seal(key, plaintext, c.rng)
	if err != nil {
		return nil
	}
	return out
}

func (c *sealCipher) Decrypt(key, ciphertext []byte) []byte {
	out, err := botcrypto.Open(key, ciphertext)
	if err != nil {
		return nil
	}
	return out
}

// Schemes constructs the four Table I families plus the OnionBot row.
// The RSA rows use the package's fixed keys; the OnionBot key and nonces
// are derived deterministically from the seed so audits are
// reproducible.
func Schemes(seed []byte) ([]Scheme, error) {
	rsa512, err := fixedRSASigner(rsa512PEM)
	if err != nil {
		return nil, err
	}
	rsa2048, err := fixedRSASigner(rsa2048PEM)
	if err != nil {
		return nil, err
	}
	edSigner, err := NewEd25519Signer(botcrypto.NewDRBG(append([]byte("table1:"), seed...)))
	if err != nil {
		return nil, err
	}
	return []Scheme{
		{Botnet: "Miner", Cipher: NullCipher{}, Signer: NullSigner{}},
		{Botnet: "Storm", Cipher: XORCipher{}, Signer: NullSigner{}},
		{Botnet: "ZeroAccess v1", Cipher: RC4Cipher{}, Signer: rsa512},
		{Botnet: "Zeus", Cipher: ChainedXORCipher{}, Signer: rsa2048},
		{
			Botnet:          "OnionBot",
			Cipher:          &sealCipher{rng: botcrypto.NewDRBG(append([]byte("seal-nonce:"), seed...))},
			Signer:          edSigner,
			ReplayProtected: true,
		},
	}, nil
}

// Audit runs the three probes (replay, known-plaintext key recovery,
// forgery) against one scheme and reports the outcomes.
func Audit(s Scheme, seed []byte) (AuditRow, error) {
	drbg := botcrypto.NewDRBG(append([]byte("audit-key:"), seed...))
	key := drbg.Bytes(16)
	row := AuditRow{Botnet: s.Botnet, Crypto: s.Cipher.Name(), Signing: s.Signer.Name()}
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)

	framed := func(cmd string) []byte {
		if !s.ReplayProtected {
			return []byte(cmd)
		}
		pt := make([]byte, 24+len(cmd))
		copy(pt[:16], drbg.Bytes(16))
		binary.BigEndian.PutUint64(pt[16:24], uint64(now.Unix()))
		copy(pt[24:], cmd)
		return pt
	}

	// Probe 1: replay. Capture a legitimate command, deliver it twice.
	bot := newProcessor(s, key)
	wire, err := seal(s, key, framed("ddos example.com"))
	if err != nil {
		return row, err
	}
	if err := bot.Deliver(wire, now); err != nil {
		return row, fmt.Errorf("legacy: legitimate delivery failed: %w", err)
	}
	row.Replayable = bot.Deliver(wire, now.Add(time.Minute)) == nil

	// Probe 2: known-plaintext key recovery. The analyst knows one
	// (pt, ct) pair — say a reverse-engineered beacon — and tries to
	// decrypt a second, unseen command.
	// Long enough to cover both the key length (XOR recovery) and the
	// secret command (keystream-reuse recovery).
	known := []byte("beacon v0.1 hello from bot 0000 uptime 3600s")
	knownWire, err := seal(s, key, framed(string(known)))
	if err != nil {
		return row, err
	}
	secret := "exfiltrate /etc/passwd"
	secretWire, err := seal(s, key, framed(secret))
	if err != nil {
		return row, err
	}
	knownCT := stripEnvelope(knownWire)
	secretCT := stripEnvelope(secretWire)
	row.KeyRecovered = tryKeyRecovery(s, known, knownCT, secret, secretCT, key)

	// Probe 3: forgery. The attacker crafts a command with whatever key
	// material probe 2 yielded and no signing key.
	forger := newProcessor(s, key)
	forgedPT := []byte("forged: join my botnet")
	var forgedCT []byte
	switch s.Cipher.(type) {
	case NullCipher:
		forgedCT = forgedPT
	case XORCipher:
		k := RecoverXORKey(known, knownCT, len(key))
		forgedCT = XORCipher{}.Encrypt(k, forgedPT)
	case ChainedXORCipher:
		k := RecoverChainedXORKey(known, knownCT, len(key))
		forgedCT = ChainedXORCipher{}.Encrypt(k, forgedPT)
	case RC4Cipher:
		ks := RecoverKeystream(known, knownCT)
		forgedCT = ApplyKeystream(ks, forgedPT) // reuse recovered keystream
	default:
		forgedCT = bytes.Repeat([]byte{0x42}, botcrypto.SealedSize) // blind guess
	}
	forgedWire := make([]byte, 2, 2+len(forgedCT))
	// No valid signature available to the attacker: empty sig.
	forgedWire = append(forgedWire, forgedCT...)
	row.Forged = forger.Deliver(forgedWire, now) == nil
	return row, nil
}

// AuditAll regenerates the full Table I comparison.
func AuditAll(seed []byte) ([]AuditRow, error) {
	schemes, err := Schemes(seed)
	if err != nil {
		return nil, err
	}
	rows := make([]AuditRow, 0, len(schemes))
	for _, s := range schemes {
		row, err := Audit(s, seed)
		if err != nil {
			return nil, fmt.Errorf("legacy: audit %s: %w", s.Botnet, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func stripEnvelope(wire []byte) []byte {
	sigLen := int(binary.BigEndian.Uint16(wire[:2]))
	return wire[2+sigLen:]
}

// tryKeyRecovery attempts the cipher-appropriate known-plaintext attack
// and reports whether the second ciphertext decrypted to the secret.
func tryKeyRecovery(s Scheme,
	known, knownCT []byte, secret string, secretCT, realKey []byte) bool {
	var recovered []byte
	switch s.Cipher.(type) {
	case NullCipher:
		recovered = secretCT // "decryption" is identity
		return string(recovered) == secret
	case XORCipher:
		k := RecoverXORKey(known, knownCT, len(realKey))
		recovered = XORCipher{}.Decrypt(k, secretCT)
	case ChainedXORCipher:
		k := RecoverChainedXORKey(known, knownCT, len(realKey))
		recovered = ChainedXORCipher{}.Decrypt(k, secretCT)
	case RC4Cipher:
		ks := RecoverKeystream(known, knownCT)
		recovered = ApplyKeystream(ks, secretCT)
	default:
		// Sealed cells: per-message nonces mean there is no shared
		// keystream to recover; try the keystream attack anyway and see
		// it fail.
		ks := RecoverKeystream(known, knownCT)
		recovered = ApplyKeystream(ks, secretCT)
	}
	return bytes.HasPrefix(recovered, []byte(secret))
}
