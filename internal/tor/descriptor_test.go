package tor

import (
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

func TestTimePeriodStaggersByIdentity(t *testing.T) {
	now := time.Date(2015, 1, 14, 23, 0, 0, 0, time.UTC)
	// Identities whose first byte differs should (usually) roll their
	// descriptors at different instants; with first bytes 0 and 255 the
	// offset difference is almost a full day.
	var a, b ServiceID
	a[0], b[0] = 0, 255
	rollsA, rollsB := 0, 0
	prevA, prevB := TimePeriod(now, a), TimePeriod(now, b)
	for h := 1; h <= 24; h++ {
		at := now.Add(time.Duration(h) * time.Hour)
		if p := TimePeriod(at, a); p != prevA {
			rollsA++
			prevA = p
		}
		if p := TimePeriod(at, b); p != prevB {
			rollsB++
			prevB = p
		}
	}
	if rollsA != 1 || rollsB != 1 {
		t.Fatalf("each identity should roll exactly once per day: a=%d b=%d", rollsA, rollsB)
	}
	// And they must roll at different hours (offset 0 vs ~23.9h).
	ra := TimePeriod(now, a)
	rb := TimePeriod(now, b)
	if ra == rb {
		// Not an error by itself (period values may coincide), but the
		// roll instants must differ: check the exact offset math.
		offA := uint64(a[0]) * 86400 / 256
		offB := uint64(b[0]) * 86400 / 256
		if offA == offB {
			t.Fatal("permanent-id-byte offsets identical for different first bytes")
		}
	}
}

func TestDescriptorIDChangesWithPeriodAndReplica(t *testing.T) {
	id := testIdentity(t, 1).ServiceID()
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	d0 := ComputeDescriptorID(id, nil, 0, now)
	d1 := ComputeDescriptorID(id, nil, 1, now)
	if d0 == d1 {
		t.Fatal("replica 0 and 1 produced the same descriptor id")
	}
	tomorrow := now.Add(25 * time.Hour)
	if ComputeDescriptorID(id, nil, 0, tomorrow) == d0 {
		t.Fatal("descriptor id did not change across a period boundary")
	}
	// Within the same period the id is stable.
	if ComputeDescriptorID(id, nil, 0, now.Add(time.Minute)) != d0 {
		t.Fatal("descriptor id changed within a period")
	}
}

func TestDescriptorCookieChangesID(t *testing.T) {
	id := testIdentity(t, 2).ServiceID()
	now := time.Date(2015, 1, 14, 12, 0, 0, 0, time.UTC)
	plain := ComputeDescriptorID(id, nil, 0, now)
	authed := ComputeDescriptorID(id, []byte("secret-cookie-16"), 0, now)
	if plain == authed {
		t.Fatal("descriptor-cookie did not affect descriptor id")
	}
}

func TestDescriptorIDsAllReplicasDistinct(t *testing.T) {
	err := quick.Check(func(raw [10]byte, unixHours uint16) bool {
		id := ServiceID(raw)
		at := time.Unix(int64(unixHours)*3600, 0)
		ids := DescriptorIDs(id, nil, at)
		return ids[0] != ids[1]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorSignAndVerify(t *testing.T) {
	id := testIdentity(t, 3)
	d := &Descriptor{
		Pub:         id.Pub,
		IntroPoints: []Fingerprint{{1}, {2}, {3}},
		TimePeriod:  16450,
		Replica:     1,
		PublishedAt: time.Unix(1421236800, 0),
	}
	d.Sign(id.Priv)
	if err := d.Verify(id.ServiceID()); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}

	// Wrong service id.
	other := testIdentity(t, 4)
	if err := d.Verify(other.ServiceID()); err == nil {
		t.Fatal("descriptor accepted for the wrong service")
	}

	// Tampered intro points.
	d2 := d.clone()
	d2.IntroPoints[0] = Fingerprint{9, 9}
	if err := d2.Verify(id.ServiceID()); err == nil {
		t.Fatal("tampered descriptor accepted")
	}

	// Forged signature by another key.
	d3 := d.clone()
	d3.Sign(other.Priv)
	if err := d3.Verify(id.ServiceID()); err == nil {
		t.Fatal("descriptor signed by the wrong key accepted")
	}
}

func TestDescriptorCloneIsDeep(t *testing.T) {
	id := testIdentity(t, 5)
	d := &Descriptor{Pub: id.Pub, IntroPoints: []Fingerprint{{1}}}
	d.Sign(id.Priv)
	c := d.clone()
	c.IntroPoints[0] = Fingerprint{2}
	c.Sig[0] ^= 0xff
	if d.IntroPoints[0] == c.IntroPoints[0] || d.Sig[0] == c.Sig[0] {
		t.Fatal("clone shares backing arrays with original")
	}
}

// TestDescriptorIDVectors pins ComputeDescriptorID to digests produced
// by the streaming sha1.New/Write/Sum construction it replaced: no
// cookie, a 16-byte cookie, and a cookie too long for the stack buffer,
// at both replicas. The common no-cookie call must not allocate.
func TestDescriptorIDVectors(t *testing.T) {
	for _, v := range []struct {
		id      ServiceID
		cookie  string
		replica int
		unix    int64
		want    string
	}{
		{ServiceID{}, "", 0, 0, "16b0d9a0ae73def466f570cf77105b29bbfc1a4c"},
		{ServiceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "0123456789abcdef", 1, 1421193600, "efa87a7bb7f252d71480511607280fd6a947167b"},
		{ServiceID{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66}, "a-cookie-longer-than-thirty-two-bytes!!", 0, 1792417020, "b0bd097b70bc265380121bd295e2085ffe91771f"},
	} {
		var cookie []byte
		if v.cookie != "" {
			cookie = []byte(v.cookie)
		}
		got := ComputeDescriptorID(v.id, cookie, v.replica, time.Unix(v.unix, 0).UTC())
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("ComputeDescriptorID(%x, %q, %d, %d) = %x, want %s", v.id, v.cookie, v.replica, v.unix, got, v.want)
		}
	}
	now := time.Unix(1421193600, 0)
	if a := testing.AllocsPerRun(20, func() {
		_ = ComputeDescriptorID(ServiceID{7}, nil, 1, now)
	}); a != 0 {
		t.Errorf("ComputeDescriptorID allocates %.1f times per call, want 0", a)
	}
}
