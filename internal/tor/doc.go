// Package tor is an in-process simulator of the Tor network features the
// OnionBots paper relies on (Section III): onion routers, the hourly
// consensus, hidden-service directories (HSDir flag after 25 hours of
// uptime), hidden-service descriptors placed on a fingerprint ring,
// introduction points, rendezvous points, and circuits carrying
// fixed-size 512-byte cells under per-hop AES-CTR layered encryption.
//
// Nothing in this package touches a real network. The simulator exists
// so that the protocol-level behaviours the paper analyses — IP/.onion
// decoupling, address rotation, HSDir positioning attacks (Section
// VI-A), and SOAP clone hosting (Section VI-B) — exercise real code
// paths with real cryptography, deterministically, inside one process.
//
// # Data-plane fast path
//
// The simulated data plane is built to sustain campaign-scale
// experiment loads (millions of dials and cells per run):
//
//   - Circuits carry no cipher state. Each network owns one AES-CTR
//     keystream; whoever originates a cell cuts a pad frame with one
//     layer per hop from it, and each hop XORs its own layer
//     (stream.go). Building a circuit and sending a cell allocate
//     nothing, and each cell-hop costs one AES pass.
//   - Cells and pad frames flow through recycled buffers
//     (Network.getWire/getPad) and are decoded in place with payload
//     views, so relaying a cell allocates nothing.
//   - A circuit's hops point at each other (relayCirc.prev/next, and
//     the first hop at its originCirc), so a cell walks pointers rather
//     than looking its circuit up at every relay. Relays and proxies
//     keep their live circuits in intrusive lists in id order; tearing
//     a circuit down sets a flag the data path checks.
//   - Delivered messages are reassembled into buffers the network
//     recycles, and each Conn schedules deliveries through one bound
//     callback that pops a FIFO (every message waits the same
//     end-to-end latency, so FIFO order is firing order). Steady-state
//     message delivery allocates nothing.
//
// # Handler contract
//
// A message passed to a Conn handler (SetHandler) is valid only during
// the handler call: its buffer is recycled for a later message as soon
// as the handler returns. A handler that keeps any bytes must copy
// them. Messages returned by Recv are not recycled.
//   - Each proxy keeps a verified-descriptor cache consulted before
//     hitting HSDirs. A cached descriptor is reused only when a cheap
//     coherence probe proves a fresh fetch would return byte-identical
//     bytes (same time period, a responsible directory still serving
//     the same signature); entries invalidate on descriptor-id
//     rollover, republish, directory churn, and dial failure. The
//     Ed25519 signature is verified once per descriptor, not once per
//     dial.
//   - Signature verification of immutable bytes (descriptors, intro
//     bindings) is memoized network-wide; outcomes are unchanged
//     because verification is a pure function of its input.
//   - Directory state is plain Go maps: each HSDir caches descriptors
//     in a map keyed by descriptor id (store.go), and the network maps
//     fingerprints to live relays. A directory holds on the order of
//     10^2 descriptors, and the whole directory layer is a few percent
//     of CPU, so nothing cleverer pays for itself.
//
// All of this is observationally equivalent to the slow path: fixed
// seeds produce byte-identical experiment outputs.
//
// # Client resilience
//
// The client side answers the infrastructure fault plane (the relay
// fault processes in internal/churn): Proxy.DialAsync retries failed
// dials under a RetryPolicy — bounded attempts, exponential backoff on the
// simulated clock — and after every failure invalidates the cached
// descriptor, marks the guard set dirty, and rotates replica
// preference so the retry is a fresh attempt. A zero policy makes
// DialAsync behave exactly like the synchronous Dial. Path building,
// intro-point selection, and intro repair all skip-and-resample
// relays a stale consensus still lists but that are no longer alive,
// and hosted services detect when their responsible directory set
// moves within a descriptor period and republish to the survivors
// (NetworkStats counts failures, retries, recoveries, and repairs).
//
// Substitution note (see docs/ARCHITECTURE.md): hidden-service
// identities are
// Ed25519 keys rather than the RSA-1024 keys of 2015-era Tor. The
// paper's address-rotation scheme requires the bot and the botmaster to
// derive the same key independently from a shared seed; Ed25519 key
// derivation is deterministic by construction, while crypto/rsa's
// generator is deliberately not. Every derived quantity keeps the
// paper's formulas: the onion address is the base32 encoding of the
// first 10 bytes of SHA-1 of the public key, and descriptor IDs follow
// descriptor-id = H(identifier || H(time-period || cookie || replica)).
package tor
