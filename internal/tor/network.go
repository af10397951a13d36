package tor

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"onionbots/internal/sim"
)

// Config tunes the simulated network. Zero fields take the defaults
// matching the paper's description of Tor.
type Config struct {
	// HSDirUptime is the uptime a relay needs before the next consensus
	// grants it the HSDir flag. Default 25h (Section III).
	HSDirUptime time.Duration
	// ConsensusInterval is how often the authorities publish. Default 1h.
	ConsensusInterval time.Duration
	// DescriptorTTL is how long directories serve a stored descriptor.
	// Default 24h.
	DescriptorTTL time.Duration
	// IntroPoints is how many introduction points each hidden service
	// maintains. Default 3.
	IntroPoints int
	// PathLen is the relay count per circuit. Default 3.
	PathLen int
	// HopLatency is the virtual per-hop delivery delay applied to DATA
	// cells end to end. Default 50ms.
	HopLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.HSDirUptime == 0 {
		c.HSDirUptime = 25 * time.Hour
	}
	if c.ConsensusInterval == 0 {
		c.ConsensusInterval = time.Hour
	}
	if c.DescriptorTTL == 0 {
		c.DescriptorTTL = 24 * time.Hour
	}
	if c.IntroPoints == 0 {
		c.IntroPoints = 3
	}
	if c.PathLen == 0 {
		c.PathLen = 3
	}
	if c.HopLatency == 0 {
		c.HopLatency = 50 * time.Millisecond
	}
	return c
}

// NetworkStats aggregates network-wide counters.
type NetworkStats struct {
	CircuitsBuilt  int
	CellsSwitched  int
	ConsensusCount int

	// Fault-plane counters: how often the protocol stack failed,
	// re-attempted, and recovered. All stay zero on fault-free runs.
	//
	// DialFailures counts dial attempts that returned an error (every
	// attempt, including ones a retry later redeemed). DialRetries
	// counts re-attempts scheduled by DialAsync under a retry policy;
	// DialRecoveries counts dials that succeeded after at least one
	// retry. PublishRepairs counts descriptor republishes forced by the
	// responsible-HSDir set moving under a hidden service (directory
	// loss healing).
	DialFailures   int
	DialRetries    int
	DialRecoveries int
	PublishRepairs int
}

// ErrNoConsensus reports an operation that requires a published
// consensus before one exists.
var ErrNoConsensus = errors.New("tor: no consensus published yet")

// ErrNotEnoughRelays reports a path request the consensus cannot satisfy.
var ErrNotEnoughRelays = errors.New("tor: not enough relays")

// Network is the simulated Tor network: relays, consensus, and the
// virtual clock they share.
type Network struct {
	sched     *sim.Scheduler
	rng       *sim.RNG
	cfg       Config
	relays    map[Fingerprint]*Relay
	order     []*Relay // insertion order (swap-removed; consensus sorts)
	consensus *Consensus
	nextCirc  uint64
	stats     NetworkStats
	autoCons  bool
	// relayEpoch counts relay-membership changes; proxies use it to
	// skip re-validating their guard sets while the relay population is
	// unchanged (the common case between takedown events).
	relayEpoch uint64

	// Ed25519 verification memos. Signature verification is a pure
	// function of immutable bytes, so once any party has verified a
	// descriptor or intro binding, re-running the check elsewhere in the
	// simulation must give the same answer; the memos skip the repeated
	// ~70µs scalar multiplications without changing a single outcome.
	// Entries accumulate for the life of the run, bounded by the number
	// of distinct descriptors published and services hosted.
	verifiedDescs  map[[sha256.Size]byte]struct{}
	verifiedIntros map[[ed25519.PublicKeySize + ed25519.SignatureSize]byte]struct{}

	// keystream is the one AES-CTR stream every cell's onion layers are
	// cut from, and padFree recycles the pad frames they are cut into
	// (stream.go).
	keystream cipher.Stream
	padFree   [][]byte
	// observeCell, when non-nil, sees the body of every cell a relay
	// receives before the relay touches its own layer. Only tests set it.
	observeCell func(r *Relay, forward bool, body []byte)

	// wireFree recycles cell scratch buffers through the synchronous
	// data plane. Cells are processed depth-first on one goroutine, so a
	// buffer is always returned after its call tree unwinds; the
	// freelist's high-water mark is the deepest cell nesting of the run.
	wireFree []*[CellSize]byte
	// msgFree recycles message reassembly buffers (OnionProxy.onData). A
	// buffer returns here once its Conn handler has returned.
	msgFree [][]byte
}

// getWire takes a cell buffer off the freelist (or allocates one).
// Callers must putWire it back once the cell's synchronous processing
// has fully unwound, and must not retain references past that point.
func (n *Network) getWire() *[CellSize]byte {
	if len(n.wireFree) == 0 {
		return new([CellSize]byte)
	}
	w := n.wireFree[len(n.wireFree)-1]
	n.wireFree = n.wireFree[:len(n.wireFree)-1]
	return w
}

// putWire returns a cell buffer to the freelist.
func (n *Network) putWire(w *[CellSize]byte) {
	n.wireFree = append(n.wireFree, w)
}

// getMsg takes an empty message buffer off the freelist (or allocates
// one that holds a full cell payload).
func (n *Network) getMsg() []byte {
	if k := len(n.msgFree); k > 0 {
		m := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		return m[:0]
	}
	return make([]byte, 0, MaxCellPayload)
}

// putMsg returns a message buffer to the freelist.
func (n *Network) putMsg(m []byte) { n.msgFree = append(n.msgFree, m) }

// NewNetwork creates an empty network on the given scheduler and RNG.
func NewNetwork(sched *sim.Scheduler, rng *sim.RNG, cfg Config) *Network {
	block, err := aes.NewCipher([]byte("onionbots-cells!"))
	if err != nil {
		panic("tor: cell cipher: " + err.Error())
	}
	return &Network{
		sched:          sched,
		rng:            rng,
		cfg:            cfg.withDefaults(),
		relays:         make(map[Fingerprint]*Relay),
		verifiedDescs:  make(map[[sha256.Size]byte]struct{}),
		verifiedIntros: make(map[[ed25519.PublicKeySize + ed25519.SignatureSize]byte]struct{}),
		keystream:      cipher.NewCTR(block, make([]byte, aes.BlockSize)),
	}
}

// descMemoKey digests one (service, descriptor) pair for the verify
// memo. The digest covers the dialed service id plus every signed byte;
// the variable-size fields are length-framed so bytes cannot be moved
// across the signingBytes/Sig boundary to collide with an
// already-verified descriptor's digest.
func descMemoKey(sid ServiceID, d *Descriptor) [sha256.Size]byte {
	signed := d.signingBytes()
	var frame [8]byte
	binary.BigEndian.PutUint64(frame[:], uint64(len(signed)))
	h := sha256.New()
	h.Write(sid[:])
	h.Write(frame[:])
	h.Write(signed)
	h.Write(d.Sig)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// verifyDescriptor is Descriptor.Verify memoized across the network. A
// memo hit proves this exact (service, descriptor) pair already passed
// the full check somewhere in the run — or was signed in-process by the
// service itself (noteSignedDescriptor), which is the same statement.
func (n *Network) verifyDescriptor(sid ServiceID, d *Descriptor) error {
	if d.verified && d.verifiedSID == sid {
		return nil // this exact object already passed for this service
	}
	key := descMemoKey(sid, d)
	if _, ok := n.verifiedDescs[key]; ok {
		d.verified, d.verifiedSID = true, sid
		return nil
	}
	if err := d.Verify(sid); err != nil {
		return err
	}
	n.verifiedDescs[key] = struct{}{}
	d.verified, d.verifiedSID = true, sid
	return nil
}

// noteSignedDescriptor records a descriptor the holder of priv has just
// signed as verified, skipping the redundant scalar multiplications a
// directory (and every later client) would spend re-checking bytes that
// are valid by construction: Ed25519 signing is deterministic and
// correct, so Verify(pub, msg, Sign(priv, msg)) always holds when priv's
// embedded public half is pub. That embedding is checked here; Identity
// keypairs are only ever minted by NewIdentity/IdentityFromSeed, whose
// halves match by construction.
func (n *Network) noteSignedDescriptor(priv ed25519.PrivateKey, d *Descriptor) {
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok || !bytes.Equal(pub, d.Pub) {
		return // not the service's own descriptor; let Verify decide
	}
	sid := ServiceIDOf(d.Pub)
	n.verifiedDescs[descMemoKey(sid, d)] = struct{}{}
	d.verified, d.verifiedSID = true, sid
}

// PreverifyIntro runs (and memoizes) the ESTABLISH_INTRO binding check
// for an identity ahead of hosting. Identity pools call it during
// warmup so the signature verification a join would trigger at its
// introduction points has already happened off the hot path.
func (n *Network) PreverifyIntro(id *Identity) bool {
	payload := id.IntroPayload()
	return n.verifyIntroBinding(id.Pub, payload[ed25519.PublicKeySize:])
}

// verifyIntroBinding memoizes the ESTABLISH_INTRO signature check: a
// service presents the same (pub, sig) pair to every introduction relay
// it ever recruits.
func (n *Network) verifyIntroBinding(pub ed25519.PublicKey, sig []byte) bool {
	var key [ed25519.PublicKeySize + ed25519.SignatureSize]byte
	copy(key[:ed25519.PublicKeySize], pub)
	copy(key[ed25519.PublicKeySize:], sig)
	if _, ok := n.verifiedIntros[key]; ok {
		return true
	}
	if !ed25519.Verify(pub, introBinding(pub), sig) {
		return false
	}
	n.verifiedIntros[key] = struct{}{}
	return true
}

// Now reports the network's virtual time.
func (n *Network) Now() time.Time { return n.sched.Now() }

// Scheduler exposes the shared virtual clock.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// RNG exposes the network's random stream (used by proxies for path
// selection so a single seed drives the whole run).
func (n *Network) RNG() *sim.RNG { return n.rng }

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a copy of the network counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Consensus returns the latest published consensus (nil before the
// first publication).
func (n *Network) Consensus() *Consensus { return n.consensus }

// AddRelay generates a fresh relay identity and joins it to the network.
// The relay appears in consensuses published from now on and earns the
// HSDir flag once its uptime crosses Config.HSDirUptime.
func (n *Network) AddRelay() (*Relay, error) {
	var seed [32]byte
	copy(seed[:], n.rng.Bytes(32))
	return n.AddRelayWithSeed(seed)
}

// AddRelayWithSeed joins a relay whose identity derives from the given
// seed. Fault processes restarting crashed relays use it with seeds
// drawn from their own substream, so a restart never consumes the
// network's shared random stream (which would shift every later path
// choice and break cross-run byte equality).
func (n *Network) AddRelayWithSeed(seed [32]byte) (*Relay, error) {
	return n.addRelayWithIdentity(IdentityFromSeed(seed))
}

// InjectRelayAtFingerprint joins a relay whose fingerprint is exactly
// fp. This models a Section VI-A adversary that has already spent the
// brute-force key-search effort to land at a chosen ring position; the
// 25-hour HSDir-flag delay still applies, which is the timing constraint
// the paper highlights.
func (n *Network) InjectRelayAtFingerprint(fp Fingerprint) (*Relay, error) {
	if n.relays[fp] != nil {
		return nil, fmt.Errorf("tor: fingerprint %s already present", fp)
	}
	r := n.newRelay(nil, fp)
	return r, nil
}

func (n *Network) addRelayWithIdentity(id *Identity) (*Relay, error) {
	fp := id.Fingerprint()
	if n.relays[fp] != nil {
		return nil, fmt.Errorf("tor: fingerprint %s already present", fp)
	}
	return n.newRelay(id, fp), nil
}

func (n *Network) newRelay(id *Identity, fp Fingerprint) *Relay {
	r := &Relay{
		id:             id,
		fp:             fp,
		net:            n,
		joined:         n.Now(),
		introByService: make(map[ServiceID]*relayCirc),
		rendByCookie:   make(map[[cookieSize]byte]*relayCirc),
		store:          make(map[DescriptorID]*Descriptor),
	}
	n.relays[fp] = r
	r.orderIdx = len(n.order)
	n.order = append(n.order, r)
	n.relayEpoch++
	return r
}

// Relay returns the live relay for a fingerprint, or nil.
func (n *Network) Relay(fp Fingerprint) *Relay { return n.relays[fp] }

// RemoveRelay kills a relay (operator shutdown, seizure, DoS). Every
// circuit through it is destroyed in both directions — connections
// riding those circuits die, and hidden services lose any introduction
// point hosted there. The relay leaves future consensuses at the next
// publication.
func (n *Network) RemoveRelay(fp Fingerprint) {
	r := n.relays[fp]
	if r == nil {
		return
	}
	// Destroy oldest first. Tearing circuits down never builds one, so
	// the head is always the oldest circuit still alive here.
	for rc := r.circs.head; rc != nil; rc = r.circs.head {
		r.drop(rc)
		if lc := rc.linked; lc != nil && !lc.closed {
			lc.linked = nil
			lc.destroyBackward()
			r.drop(lc)
		}
		if rc.next != nil {
			rc.next.teardown()
		}
		rc.destroyBackward()
	}
	delete(n.relays, fp)
	// Swap-remove from the insertion-order slice: O(1) per removal, and
	// harmless to determinism because PublishConsensus sorts its snapshot
	// by fingerprint before anything consumes it.
	last := len(n.order) - 1
	if moved := n.order[last]; moved != r {
		n.order[r.orderIdx] = moved
		moved.orderIdx = r.orderIdx
	}
	n.order[last] = nil
	n.order = n.order[:last]
	n.relayEpoch++
}

// destroyBackward walks toward the circuit origin deleting state and
// finally notifies the origin proxy. Unlike data cells, destruction is
// a link-level signal (as Tor's DESTROY is) and bypasses onion crypto.
func (rc *relayCirc) destroyBackward() {
	origin := rc.origin
	for prc := rc.prev; prc != nil; prc = prc.prev {
		if prc.closed {
			return
		}
		prc.relay.forget(prc)
		origin = prc.origin
	}
	if origin != nil {
		origin.op.circuitDestroyed(origin)
	}
}

// NumRelays reports how many relays are joined.
func (n *Network) NumRelays() int { return len(n.relays) }

// PublishConsensus snapshots the relay list, assigning the HSDir flag to
// relays with sufficient uptime.
func (n *Network) PublishConsensus() *Consensus {
	now := n.Now()
	infos := make([]RelayInfo, 0, len(n.order))
	for _, r := range n.order {
		infos = append(infos, RelayInfo{
			FP:    r.fp,
			HSDir: r.Uptime(now) >= n.cfg.HSDirUptime,
		})
	}
	n.consensus = newConsensus(now, infos)
	n.stats.ConsensusCount++
	return n.consensus
}

// StartConsensusSchedule begins hourly consensus publication on the
// virtual clock. Call once; repeated calls are no-ops.
func (n *Network) StartConsensusSchedule() {
	if n.autoCons {
		return
	}
	n.autoCons = true
	n.sched.Every(n.cfg.ConsensusInterval, func() bool {
		n.PublishConsensus()
		return true
	})
}

// Bootstrap is the standard test/experiment setup: join numRelays
// relays, advance virtual time past the HSDir uptime threshold, publish
// a consensus, and start the hourly schedule.
func (n *Network) Bootstrap(numRelays int) error {
	if numRelays < n.cfg.PathLen {
		return fmt.Errorf("%w: %d < path length %d", ErrNotEnoughRelays, numRelays, n.cfg.PathLen)
	}
	for i := 0; i < numRelays; i++ {
		if _, err := n.AddRelay(); err != nil {
			return err
		}
	}
	n.sched.RunFor(n.cfg.HSDirUptime + time.Hour)
	n.PublishConsensus()
	n.StartConsensusSchedule()
	return nil
}
