package pow

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// MaxDifficulty bounds puzzle hardness; beyond ~30 bits a single solve
// becomes impractical inside a simulation tick.
const MaxDifficulty = 30

// Verify reports whether nonce solves the challenge at the given
// difficulty (leading zero bits of SHA-256(challenge || nonce)).
func Verify(challenge []byte, nonce uint64, difficulty uint8) bool {
	if difficulty == 0 {
		return true
	}
	if difficulty > MaxDifficulty {
		return false
	}
	return leadingZeroBits(digest(preimage(challenge), nonce)) >= int(difficulty)
}

// Solve finds a nonce meeting the difficulty and reports how many hash
// evaluations it spent — the attacker-work currency of the Section
// VII-A evaluation.
func Solve(challenge []byte, difficulty uint8) (nonce uint64, hashes uint64) {
	if difficulty == 0 {
		return 0, 0
	}
	buf := preimage(challenge)
	for n := uint64(0); ; n++ {
		hashes++
		if leadingZeroBits(digest(buf, n)) >= int(difficulty) {
			return n, hashes
		}
	}
}

// ExpectedHashes is the analytic cost of one solve: 2^difficulty.
func ExpectedHashes(difficulty uint8) float64 {
	return float64(uint64(1) << difficulty)
}

// preimage returns a challenge || nonce buffer with room for the nonce,
// so one buffer serves every nonce a solve tries.
func preimage(challenge []byte) []byte {
	buf := make([]byte, len(challenge)+8)
	copy(buf, challenge)
	return buf
}

// digest is SHA-256(challenge || big-endian nonce) over a buffer from
// preimage: it writes nonce into the last 8 bytes and hashes in place.
func digest(buf []byte, nonce uint64) [sha256.Size]byte {
	binary.BigEndian.PutUint64(buf[len(buf)-8:], nonce)
	return sha256.Sum256(buf)
}

func leadingZeroBits(d [sha256.Size]byte) int {
	total := 0
	for i := 0; i < len(d); i += 8 {
		word := binary.BigEndian.Uint64(d[i : i+8])
		lz := bits.LeadingZeros64(word)
		total += lz
		if lz < 64 {
			break
		}
	}
	return total
}
