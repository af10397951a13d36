package tor

import (
	"fmt"
	"math"
	"math/big"
	"time"
)

// This file implements the Section VI-A mitigation: an authority (or any
// adversary) injects relays whose fingerprints immediately follow a
// bot's descriptor id on the HSDir ring, becomes the bot's responsible
// directory, and suppresses the descriptor — denying access to that
// .onion address.
//
// Finding a key whose fingerprint lands in a chosen ring interval is a
// brute-force search (the paper cites [8], "Trawling for Tor hidden
// services"). The simulator separates the two concerns: the cost model
// below quantifies the search work, and InjectRelayAtFingerprint models
// a search that has already succeeded so experiments can study the
// protocol-level consequences (the 25-hour HSDir-flag delay, the need to
// re-position every descriptor period, and partial coverage).

// PositionFingerprints returns count fingerprints placed immediately at
// and after the target descriptor id on the ring, tightly packed so they
// out-compete every honest HSDir for responsibility.
func PositionFingerprints(target DescriptorID, count int) []Fingerprint {
	out := make([]Fingerprint, 0, count)
	cur := Fingerprint(target)
	for i := 0; i < count; i++ {
		out = append(out, cur)
		cur = incrementFingerprint(cur)
	}
	return out
}

// incrementFingerprint adds one to a fingerprint as a 160-bit
// big-endian integer, wrapping at the ring boundary.
func incrementFingerprint(f Fingerprint) Fingerprint {
	for i := len(f) - 1; i >= 0; i-- {
		f[i]++
		if f[i] != 0 {
			break
		}
	}
	return f
}

// OccupyDescriptorRing injects HSDirsPerReplica adversarial relays for
// each replica of the service's descriptor ids at time at and marks
// them malicious (they will accept but never serve the descriptor). It
// returns the injected relays. The relays still need Config.HSDirUptime
// of uptime before a consensus grants them the flag — the paper's "at
// least 25 hours before" constraint — so an adversary positions for a
// descriptor period at least that far ahead, and callers must advance
// time and republish the consensus before the denial takes effect.
func OccupyDescriptorRing(n *Network, sid ServiceID, cookie []byte, at time.Time) ([]*Relay, error) {
	var injected []*Relay
	for r := 0; r < NumReplicas; r++ {
		descID := ComputeDescriptorID(sid, cookie, r, at)
		for _, fp := range PositionFingerprints(descID, HSDirsPerReplica) {
			relay, err := n.InjectRelayAtFingerprint(fp)
			if err != nil {
				return injected, fmt.Errorf("tor: occupy ring: %w", err)
			}
			relay.SetMalicious(true)
			injected = append(injected, relay)
		}
	}
	return injected, nil
}

// ExpectedKeySearchTries estimates the expected number of random keys an
// adversary must generate for one fingerprint to land in the ring
// interval [target, firstHonest) — i.e. to become the first responsible
// HSDir for the target. The estimate is 2^160 divided by the interval
// width, computed against the given consensus.
func ExpectedKeySearchTries(c *Consensus, target DescriptorID) float64 {
	if c == nil || len(c.hsdirs) == 0 {
		return math.Inf(1)
	}
	// Locate the first HSDir at or after the target.
	var first Fingerprint
	found := false
	for _, fp := range c.hsdirs {
		if !fp.Less(Fingerprint(target)) {
			first, found = fp, true
			break
		}
	}
	if !found {
		first = c.hsdirs[0] // wrap
	}
	t := new(big.Int).SetBytes(target[:])
	f := new(big.Int).SetBytes(first[:])
	ringSize := new(big.Int).Lsh(big.NewInt(1), 160)
	gap := new(big.Int).Sub(f, t)
	if gap.Sign() <= 0 {
		gap.Add(gap, ringSize)
	}
	tries := new(big.Float).Quo(new(big.Float).SetInt(ringSize), new(big.Float).SetInt(gap))
	out, _ := tries.Float64()
	return out
}

// VanityPrefixTries reports the expected number of keys to brute-force
// an onion address with a chosen prefix of prefixLen base32 characters:
// 32^prefixLen (Section IV-B's infeasibility argument for random
// probing; the paper cites ~25 days for 8 characters with 2015-era
// tooling).
func VanityPrefixTries(prefixLen int) float64 {
	return math.Pow(32, float64(prefixLen))
}

// OnionAddressSpace reports the size of the full .onion namespace,
// 32^16, which random-probing bootstrap would have to scan (Section
// IV-B).
func OnionAddressSpace() float64 { return math.Pow(32, 16) }

// EstimateVanitySearchDuration converts a measured key-generation rate
// (keys/second) into the expected wall-clock time to find a vanity
// prefix of the given length.
func EstimateVanitySearchDuration(prefixLen int, keysPerSecond float64) time.Duration {
	if keysPerSecond <= 0 {
		return time.Duration(math.MaxInt64)
	}
	seconds := VanityPrefixTries(prefixLen) / keysPerSecond
	if seconds > float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(seconds * float64(time.Second))
}
