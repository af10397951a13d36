package tor

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// DescriptorID is the ring position at which a hidden-service descriptor
// is stored.
type DescriptorID [20]byte

// Less orders descriptor IDs on the same ring as fingerprints.
func (d DescriptorID) Less(f Fingerprint) bool {
	for i := range d {
		if d[i] != f[i] {
			return d[i] < f[i]
		}
	}
	return false
}

// NumReplicas is the number of descriptor replicas Tor distributes; each
// replica lands on HSDirsPerReplica consecutive HSDirs, so every hidden
// service has NumReplicas*HSDirsPerReplica responsible directories.
const (
	NumReplicas      = 2
	HSDirsPerReplica = 3
)

// TimePeriod computes the paper's time-period value:
//
//	time-period = (current-time + permanent-id-byte * 86400 / 256) / 86400
//
// where permanent-id-byte is the first byte of the service identifier.
// The per-identity offset staggers descriptor rollover so all services
// do not change HSDirs at the same instant.
func TimePeriod(now time.Time, id ServiceID) uint64 {
	unix := uint64(now.Unix())
	offset := uint64(id[0]) * 86400 / 256
	return (unix + offset) / 86400
}

// ComputeDescriptorID evaluates the paper's formulas:
//
//	secret-id-part = H(time-period || descriptor-cookie || replica)
//	descriptor-id  = H(identifier || secret-id-part)
//
// H is SHA-1. cookie may be nil (no client authorization). Both
// digests hash stack buffers, so the call allocates nothing unless the
// cookie is longer than 32 bytes.
func ComputeDescriptorID(id ServiceID, cookie []byte, replica int, now time.Time) DescriptorID {
	var buf [8 + 32 + 1]byte
	in := binary.BigEndian.AppendUint64(buf[:0], TimePeriod(now, id))
	in = append(in, cookie...)
	in = append(in, byte(replica))
	secret := sha1.Sum(in)

	var outer [len(id) + sha1.Size]byte
	copy(outer[:], id[:])
	copy(outer[len(id):], secret[:])
	return sha1.Sum(outer[:])
}

// DescriptorIDs returns the descriptor IDs for every replica.
func DescriptorIDs(id ServiceID, cookie []byte, now time.Time) [NumReplicas]DescriptorID {
	var out [NumReplicas]DescriptorID
	for r := 0; r < NumReplicas; r++ {
		out[r] = ComputeDescriptorID(id, cookie, r, now)
	}
	return out
}

// Descriptor is a published hidden-service descriptor: enough for a
// client to verify the service identity and reach its introduction
// points.
type Descriptor struct {
	// Pub is the service's public key; clients check that
	// SHA-1(Pub)[:10] matches the ServiceID they dialed.
	Pub ed25519.PublicKey
	// IntroPoints are the fingerprints of the service's current
	// introduction relays.
	IntroPoints []Fingerprint
	// TimePeriod records the period the descriptor was computed for.
	TimePeriod uint64
	// Replica is which replica this copy is (0-based). It is location
	// metadata — which ring position the copy was uploaded to — not
	// content, and is not covered by Sig: the replicas of a publication
	// are one signed document stored at NumReplicas ring positions, as
	// in Tor, so a service signs (and every verifier checks) each
	// publication once rather than once per replica. A tampered Replica
	// can at worst make a client's cache-coherence probe miss and
	// refetch.
	Replica int
	// PublishedAt timestamps the upload; directories expire stale
	// descriptors.
	PublishedAt time.Time
	// Sig is the service's signature over the canonical encoding.
	Sig []byte

	// verified caches a successful Verify (or an in-process signing)
	// for verifiedSID, so the several directories a publication fans
	// out to skip even the memo digest. Descriptors are immutable once
	// stored (directories clone on ingest and serve shared pointers);
	// the mark is cleared on clone, so a copy in untrusted hands must
	// re-earn it.
	verified    bool
	verifiedSID ServiceID
}

// ErrBadDescriptor reports a descriptor whose signature or identity
// binding fails verification.
var ErrBadDescriptor = errors.New("tor: descriptor verification failed")

// signingBytes is the canonical byte string covered by Sig.
func (d *Descriptor) signingBytes() []byte {
	buf := make([]byte, 0, 64+20*len(d.IntroPoints))
	buf = append(buf, d.Pub...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], d.TimePeriod)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(d.PublishedAt.Unix()))
	buf = append(buf, tmp[:]...)
	for _, ip := range d.IntroPoints {
		buf = append(buf, ip[:]...)
	}
	return buf
}

// Sign populates Sig using the service's private key.
func (d *Descriptor) Sign(priv ed25519.PrivateKey) {
	d.Sig = ed25519.Sign(priv, d.signingBytes())
}

// Verify checks the signature and, when the caller knows the service it
// dialed, the identity binding.
func (d *Descriptor) Verify(want ServiceID) error {
	if len(d.Pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrBadDescriptor, len(d.Pub))
	}
	if id := ServiceIDOf(d.Pub); id != want {
		return fmt.Errorf("%w: identity mismatch (got %s want %s)", ErrBadDescriptor, id, want)
	}
	if !ed25519.Verify(d.Pub, d.signingBytes(), d.Sig) {
		return fmt.Errorf("%w: bad signature", ErrBadDescriptor)
	}
	return nil
}

// equal reports field-for-field equality — used by the descriptor-cache
// coherence probe, where signature equality alone must not be trusted
// (a tampered descriptor could splice a valid signature onto altered
// intro points).
func (d *Descriptor) equal(o *Descriptor) bool {
	if !bytes.Equal(d.Pub, o.Pub) ||
		d.TimePeriod != o.TimePeriod ||
		d.Replica != o.Replica ||
		!d.PublishedAt.Equal(o.PublishedAt) ||
		!bytes.Equal(d.Sig, o.Sig) ||
		len(d.IntroPoints) != len(o.IntroPoints) {
		return false
	}
	for i := range d.IntroPoints {
		if d.IntroPoints[i] != o.IntroPoints[i] {
			return false
		}
	}
	return true
}

// clone returns a defensive copy (directories hand descriptors to
// untrusted callers). The verified mark deliberately does NOT travel:
// the holder of a clone may mutate its exported fields, and a spliced
// descriptor must re-earn verification (the content-keyed network memo
// makes that a digest, not a scalar multiplication, when the bytes are
// genuinely unchanged).
func (d *Descriptor) clone() *Descriptor {
	out := *d
	out.Pub = append(ed25519.PublicKey(nil), d.Pub...)
	out.IntroPoints = append([]Fingerprint(nil), d.IntroPoints...)
	out.Sig = append([]byte(nil), d.Sig...)
	out.verified = false
	out.verifiedSID = ServiceID{}
	return &out
}
