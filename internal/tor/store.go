package tor

import (
	"crypto/ed25519"
	"fmt"
)

// The HSDir descriptor cache. A directory only caches signed descriptors
// by id and serves them back until they expire (Sections II-B and IV-A),
// so each relay keeps one Go map from descriptor id to descriptor. In
// every workload a directory holds on the order of 10^2 descriptors, where
// a map lookup costs tens of nanoseconds and the whole directory layer is
// a few percent of CPU (perfbench/README.md).

// StoreDescriptor accepts a descriptor upload. Directories verify the
// descriptor signature and identity binding before storing, as real
// HSDirs do.
func (r *Relay) StoreDescriptor(id DescriptorID, d *Descriptor) error {
	return r.storeDescriptor(id, d, false)
}

// storeDescriptorOwned is StoreDescriptor for a descriptor the caller
// hands over and will never mutate (publishDescriptors' per-replica
// copies): the defensive ingest clone is skipped, everything else —
// HSDir gate, verification, stats — is identical.
func (r *Relay) storeDescriptorOwned(id DescriptorID, d *Descriptor) error {
	return r.storeDescriptor(id, d, true)
}

func (r *Relay) storeDescriptor(id DescriptorID, d *Descriptor, owned bool) error {
	if !r.isHSDir() {
		return fmt.Errorf("%w: %s", ErrNotHSDir, r.fp)
	}
	var sid ServiceID
	if len(d.Pub) == ed25519.PublicKeySize {
		sid = ServiceIDOf(d.Pub)
	}
	if err := r.net.verifyDescriptor(sid, d); err != nil {
		return err
	}
	if !owned {
		d = d.clone()
	}
	r.store[id] = d
	r.stats.DescriptorsStored++
	return nil
}

// FetchDescriptor serves a stored descriptor, or nil if the relay has
// none (or is malicious, or the descriptor expired).
func (r *Relay) FetchDescriptor(id DescriptorID) *Descriptor {
	if r.malicious {
		return nil
	}
	d, ok := r.store[id]
	if !ok {
		return nil
	}
	if r.expired(d) {
		delete(r.store, id)
		return nil
	}
	r.stats.DescriptorsServed++
	return d.clone()
}

// wouldServe reports whether FetchDescriptor(id) would return a
// descriptor byte-identical to d. This is the coherence probe behind the
// proxies' verified-descriptor cache: it mirrors FetchDescriptor's
// malicious/presence/TTL checks but performs no clone and no signature
// verification, and leaves the serving stats untouched.
func (r *Relay) wouldServe(id DescriptorID, d *Descriptor) bool {
	if r.malicious {
		return false
	}
	s, ok := r.store[id]
	return ok && !r.expired(s) && s.equal(d)
}

// expired reports whether a stored descriptor is past the network's
// DescriptorTTL.
func (r *Relay) expired(d *Descriptor) bool {
	return r.net.Now().Sub(d.PublishedAt) > r.net.cfg.DescriptorTTL
}
