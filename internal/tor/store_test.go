package tor

import (
	"errors"
	"testing"
	"time"
)

// TestHSDirCacheStoreFetchExpire walks one descriptor through an HSDir's
// cache: only flagged directories accept it, fetches serve a copy, and
// it is dropped once it outlives DescriptorTTL.
func TestHSDirCacheStoreFetchExpire(t *testing.T) {
	n := newTestNetwork(t, 7, 12)
	id := testIdentity(t, 3)
	sid := id.ServiceID()
	now := n.Now()
	d := &Descriptor{Pub: id.Pub, TimePeriod: TimePeriod(now, sid), PublishedAt: now}
	d.Sign(id.Priv)
	descID := ComputeDescriptorID(sid, nil, 0, now)

	young, err := n.AddRelay()
	if err != nil {
		t.Fatal(err)
	}
	if err := young.StoreDescriptor(descID, d); !errors.Is(err, ErrNotHSDir) {
		t.Fatalf("unflagged relay accepted a descriptor: %v", err)
	}

	dir := n.Relay(n.Consensus().ResponsibleHSDirs(descID)[0])
	if err := dir.StoreDescriptor(descID, d); err != nil {
		t.Fatal(err)
	}
	got := dir.FetchDescriptor(descID)
	if got == nil || got == d || !got.equal(d) {
		t.Fatalf("fetch = %p, want a copy of %p", got, d)
	}
	if s := dir.Stats(); s.DescriptorsStored != 1 || s.DescriptorsServed != 1 {
		t.Fatalf("stats = %+v, want 1 stored and 1 served", s)
	}

	n.sched.RunFor(24*time.Hour + time.Minute)
	if dir.wouldServe(descID, d) || dir.FetchDescriptor(descID) != nil {
		t.Fatal("expired descriptor still served")
	}
	if len(dir.store) != 0 {
		t.Fatalf("expired descriptor still cached (%d entries)", len(dir.store))
	}
}
