package botcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key := []byte("test key material")
	rng := NewDRBG([]byte("nonce source"))
	for _, msg := range [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("attack at dawn"),
		bytes.Repeat([]byte("A"), MaxSealedPlaintext),
	} {
		sealed, err := Seal(key, msg, rng)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", len(msg), err)
		}
		if len(sealed) != SealedSize {
			t.Fatalf("sealed size = %d, want %d", len(sealed), SealedSize)
		}
		got, err := Open(key, sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip: got %d bytes, want %d", len(got), len(msg))
		}
	}
}

func TestSealRejectsOversized(t *testing.T) {
	rng := NewDRBG([]byte("r"))
	_, err := Seal([]byte("k"), make([]byte, MaxSealedPlaintext+1), rng)
	if !errors.Is(err, ErrPlaintextTooLarge) {
		t.Fatalf("error = %v, want ErrPlaintextTooLarge", err)
	}
}

func TestOpenRejectsTamperingAnywhere(t *testing.T) {
	key := []byte("k")
	rng := NewDRBG([]byte("r"))
	sealed, err := Seal(key, []byte("integrity matters"), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, nonceSize, SealedSize / 2, SealedSize - 1} {
		bad := append([]byte(nil), sealed...)
		bad[pos] ^= 0x01
		if _, err := Open(key, bad); !errors.Is(err, ErrSealCorrupt) {
			t.Fatalf("flip at %d: error = %v, want ErrSealCorrupt", pos, err)
		}
	}
}

func TestOpenRejectsWrongKeyAndSize(t *testing.T) {
	rng := NewDRBG([]byte("r"))
	sealed, err := Seal([]byte("right"), []byte("msg"), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open([]byte("wrong"), sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("wrong key error = %v, want ErrSealCorrupt", err)
	}
	if _, err := Open([]byte("right"), sealed[:100]); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("short input error = %v, want ErrSealCorrupt", err)
	}
}

func TestSealedCellsAllSameSizeRegardlessOfContent(t *testing.T) {
	// The fixed-size property: a 0-byte maintenance ping and a
	// 400-byte command are indistinguishable by size.
	key := []byte("k")
	rng := NewDRBG([]byte("r"))
	a, err := Seal(key, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Seal(key, bytes.Repeat([]byte("C"), 400), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
}

func TestSealWireUniformity(t *testing.T) {
	// Chi-square test over byte values of many sealed cells. The wire
	// form must look uniform (the Elligator-style property the paper
	// wants): no relaying bot can tell message types apart.
	key := []byte("uniformity key")
	rng := NewDRBG([]byte("uniformity nonce"))
	counts := make([]float64, 256)
	total := 0
	for i := 0; i < 200; i++ {
		sealed, err := Seal(key, []byte("identical message every time"), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sealed {
			counts[b]++
			total++
		}
	}
	expected := float64(total) / 256
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom: mean 255, stddev ~22.6. Accept within
	// ~6 sigma; a biased wire format (e.g. cleartext headers) blows far
	// past this.
	if chi2 > 255+6*math.Sqrt(2*255) {
		t.Fatalf("chi-square = %.1f, wire bytes are not uniform", chi2)
	}
}

func TestSealNoncesVary(t *testing.T) {
	key := []byte("k")
	rng := NewDRBG([]byte("r"))
	a, _ := Seal(key, []byte("same"), rng)
	b, _ := Seal(key, []byte("same"), rng)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same message are identical (nonce reuse)")
	}
}

func TestSealPropertyRoundTrip(t *testing.T) {
	key := []byte("prop key")
	rng := NewDRBG([]byte("prop nonce"))
	err := quick.Check(func(msg []byte) bool {
		if len(msg) > MaxSealedPlaintext {
			msg = msg[:MaxSealedPlaintext]
		}
		sealed, err := Seal(key, msg, rng)
		if err != nil {
			return false
		}
		got, err := Open(key, sealed)
		return err == nil && bytes.Equal(got, msg)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestXORCTRMatchesStdlibCTR pins the session keystream to
// cipher.NewCTR on random keys, nonces and lengths: empty input, partial
// final blocks, lengths well past one sealed cell, and nonces whose low
// 64 bits (or all 128) are 0xff so the counter carries.
func TestXORCTRMatchesStdlibCTR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 15, 16, 17, 31, 33, 430, 432, 511, 512, 513, 1100}
	for i := 0; i < 200; i++ {
		k := NewSealKey(randBytes(rng, 32))
		iv := randBytes(rng, aes.BlockSize)
		switch i % 4 {
		case 1:
			copy(iv[8:], bytes.Repeat([]byte{0xff}, 8))
		case 2:
			copy(iv, bytes.Repeat([]byte{0xff}, aes.BlockSize))
		case 3:
			copy(iv[8:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0})
		}
		n := rng.Intn(1200)
		if i < len(lengths) {
			n = lengths[i]
		}
		src := randBytes(rng, n)
		want := make([]byte, n)
		cipher.NewCTR(k.block, iv).XORKeyStream(want, src)
		got := make([]byte, n)
		k.xorCTR(got, src, iv)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (len %d, iv %x): keystream differs from cipher.NewCTR", i, n, iv)
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestSessionSealOpenAllocatesNothing pins the per-message cost of a
// warm session: sealing into a caller cell and opening into the
// session's scratch buffer touch no heap.
func TestSessionSealOpenAllocatesNothing(t *testing.T) {
	drbg := NewDRBG([]byte("alloc session"))
	sk := NewSealKey(drbg.Bytes(32))
	msg := drbg.Bytes(120)
	var cell [SealedSize]byte
	if a := testing.AllocsPerRun(50, func() {
		if err := sk.SealSizedInto(cell[:], msg, drbg); err != nil {
			t.Fatal(err)
		}
		got, err := sk.OpenView(cell[:])
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("OpenView = %q, %v", got, err)
		}
	}); a != 0 {
		t.Fatalf("session seal+open: %.1f allocs, want 0", a)
	}
}

func TestDRBGDeterministicAndDiverse(t *testing.T) {
	a := NewDRBG([]byte("seed")).Bytes(1024)
	b := NewDRBG([]byte("seed")).Bytes(1024)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := NewDRBG([]byte("other")).Bytes(1024)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
	distinct := map[byte]bool{}
	for _, v := range a {
		distinct[v] = true
	}
	if len(distinct) < 200 {
		t.Fatalf("DRBG output has only %d distinct byte values", len(distinct))
	}
}

func TestDRBGReadSizes(t *testing.T) {
	d := NewDRBG([]byte("sizes"))
	joined := append(append(append([]byte(nil), d.Bytes(1)...), d.Bytes(31)...), d.Bytes(64)...)
	whole := NewDRBG([]byte("sizes")).Bytes(96)
	if !bytes.Equal(joined, whole) {
		t.Fatal("chunked reads diverge from a single read")
	}
}

func BenchmarkSeal(b *testing.B) {
	key := []byte("bench key")
	rng := NewDRBG([]byte("bench nonce"))
	msg := bytes.Repeat([]byte("m"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key, msg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	key := []byte("bench key")
	rng := NewDRBG([]byte("bench nonce"))
	sealed, err := Seal(key, bytes.Repeat([]byte("m"), 256), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
