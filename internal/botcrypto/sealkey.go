package botcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

// SealKey is a precomputed sealing session: the encryption and MAC keys
// derived from one secret, with the AES key schedule expanded and the
// HMAC state allocated once. Sealing and opening under a SealKey produce
// byte-identical wire cells to the package-level Seal/Open but skip the
// per-call key derivation (two SHA-256 passes), AES key expansion, and
// HMAC construction — the dominant fixed costs on the simulator's data
// plane, where every bot reuses the same network key for every message.
//
// A SealKey owns internal scratch buffers and is therefore not safe for
// concurrent use. The simulator is single-threaded per run; callers that
// share a key across goroutines must use one SealKey per goroutine or
// fall back to the package-level functions.
type SealKey struct {
	block cipher.Block
	mac   hash.Hash // HMAC-SHA256 under the derived MAC key, Reset per use
	inner []byte    // plaintext framing scratch, grown to the largest size seen
	sum   []byte    // MAC output scratch
	// tail holds xorCTR's final partial keystream block. It lives in the
	// key, not on xorCTR's stack, because slices passed to the
	// cipher.Block interface escape: a stack block would be a heap
	// object per call.
	tail [aes.BlockSize]byte
}

// NewSealKey derives the session keys for key and precomputes the cipher
// and MAC state.
func NewSealKey(key []byte) *SealKey {
	encKey, macKey := deriveSealKeys(key)
	block, err := aes.NewCipher(encKey)
	if err != nil {
		// Derived keys are always 32 bytes; failure is programmer error.
		panic("botcrypto: bad derived key: " + err.Error())
	}
	return &SealKey{
		block: block,
		mac:   hmac.New(sha256.New, macKey),
		sum:   make([]byte, 0, tagSize),
	}
}

// Seal is the session form of the package-level Seal.
func (k *SealKey) Seal(msg []byte, random io.Reader) ([]byte, error) {
	return k.SealSized(msg, SealedSize, random)
}

// SealSized is the session form of the package-level SealSized.
func (k *SealKey) SealSized(msg []byte, size int, random io.Reader) ([]byte, error) {
	out := make([]byte, size)
	if err := k.SealSizedInto(out, msg, random); err != nil {
		return nil, err
	}
	return out, nil
}

// SealSizedInto seals msg into the caller-provided cell out, whose
// length fixes the sealed size. The only allocation left is whatever the
// random source performs.
func (k *SealKey) SealSizedInto(out, msg []byte, random io.Reader) error {
	size := len(out)
	if size < sealOverhead+1 {
		return fmt.Errorf("%w: %d", ErrBadSealSize, size)
	}
	if len(msg) > MaxPlaintextFor(size) {
		return fmt.Errorf("%w: %d > %d", ErrPlaintextTooLarge, len(msg), MaxPlaintextFor(size))
	}
	nonce := out[:nonceSize]
	if _, err := io.ReadFull(random, nonce); err != nil {
		return fmt.Errorf("botcrypto: nonce: %w", err)
	}

	inner := k.scratch(size - nonceSize - tagSize)
	binary.BigEndian.PutUint16(inner[:lenSize], uint16(len(msg)))
	copy(inner[lenSize:], msg)
	if _, err := io.ReadFull(random, inner[lenSize+len(msg):]); err != nil {
		return fmt.Errorf("botcrypto: padding: %w", err)
	}
	k.xorCTR(out[nonceSize:nonceSize+len(inner)], inner, nonce)

	k.mac.Reset()
	k.mac.Write(out[:size-tagSize])
	copy(out[size-tagSize:], k.mac.Sum(k.sum[:0]))
	return nil
}

// Open is the session form of the package-level Open.
func (k *SealKey) Open(sealed []byte) ([]byte, error) {
	return k.OpenSized(sealed, SealedSize)
}

// OpenSized is the session form of the package-level OpenSized.
func (k *SealKey) OpenSized(sealed []byte, size int) ([]byte, error) {
	inner, err := k.openScratch(sealed, size)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), inner...), nil
}

// OpenSizedInto authenticates and decrypts sealed, appending the
// plaintext to dst and returning the extended slice.
func (k *SealKey) OpenSizedInto(dst, sealed []byte, size int) ([]byte, error) {
	inner, err := k.openScratch(sealed, size)
	if err != nil {
		return nil, err
	}
	return append(dst, inner...), nil
}

// OpenView is Open without the copy: the plaintext it returns lives in
// k's scratch buffer and is valid only until the next operation on k.
// Receivers that decode the plaintext at once (DecodeEnvelope copies
// what it keeps) use it to open every message allocation-free.
func (k *SealKey) OpenView(sealed []byte) ([]byte, error) {
	return k.openScratch(sealed, SealedSize)
}

// openScratch does the work of OpenSized, returning the plaintext inside
// k's scratch buffer (valid until the next operation on k).
func (k *SealKey) openScratch(sealed []byte, size int) ([]byte, error) {
	if size < sealOverhead+1 {
		return nil, fmt.Errorf("%w: %d", ErrBadSealSize, size)
	}
	if len(sealed) != size {
		return nil, fmt.Errorf("%w: size %d, want %d", ErrSealCorrupt, len(sealed), size)
	}
	k.mac.Reset()
	k.mac.Write(sealed[:size-tagSize])
	if !hmac.Equal(k.mac.Sum(k.sum[:0]), sealed[size-tagSize:]) {
		return nil, ErrSealCorrupt
	}

	nonce := sealed[:nonceSize]
	body := sealed[nonceSize : size-tagSize]
	inner := k.scratch(len(body))
	k.xorCTR(inner, body, nonce)

	n := binary.BigEndian.Uint16(inner[:lenSize])
	if int(n) > MaxPlaintextFor(size) {
		return nil, fmt.Errorf("%w: bad inner length %d", ErrSealCorrupt, n)
	}
	return inner[lenSize : lenSize+int(n)], nil
}

// xorCTR XORs src with the AES-CTR keystream under iv into dst, exactly
// as cipher.NewCTR(k.block, iv).XORKeyStream(dst, src) would: the
// counter is iv read as one big-endian 128-bit integer, incremented per
// block. The stdlib CTR cannot take a new IV, so using it costs one heap
// object per message; this loop encrypts the counter blocks straight
// into dst and XORs src in afterwards, so dst must not overlap src.
func (k *SealKey) xorCTR(dst, src, iv []byte) {
	hi := binary.BigEndian.Uint64(iv[:8])
	lo := binary.BigEndian.Uint64(iv[8:aes.BlockSize])
	n := len(src)
	for off := 0; off < n; off += aes.BlockSize {
		blk := k.tail[:]
		if off+aes.BlockSize <= n {
			blk = dst[off : off+aes.BlockSize]
		}
		binary.BigEndian.PutUint64(blk[:8], hi)
		binary.BigEndian.PutUint64(blk[8:], lo)
		k.block.Encrypt(blk, blk)
		copy(dst[off:n], blk) // no-op unless blk is the tail block
		lo++
		if lo == 0 {
			hi++
		}
	}
	subtle.XORBytes(dst[:n], dst[:n], src)
}

// scratch returns k's reusable buffer resized to n bytes.
func (k *SealKey) scratch(n int) []byte {
	if cap(k.inner) < n {
		k.inner = make([]byte, n)
	}
	return k.inner[:n]
}
