package soap

import (
	"fmt"
	"sort"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/core"
	"onionbots/internal/pow"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// Config tunes the SOAP campaign.
type Config struct {
	// DeclaredDegreeMin/Max bound the small random degree clones lie
	// about (the paper suggests e.g. d=2). Defaults 1 and 3.
	DeclaredDegreeMin, DeclaredDegreeMax int
	// RoundInterval spaces clone waves. Default 30s (virtual).
	RoundInterval time.Duration
	// MaxClonesPerTarget caps the clones spent on one bot. Default 24.
	MaxClonesPerTarget int
	// NoNSubset is how many sibling clones a clone discloses as its
	// neighbors, poisoning the target's repair candidates. Default 3.
	NoNSubset int
	// SolvePoW lets clones answer hashcash challenges from hardened
	// bots (Section VII-A evaluation). Off by default: the basic SOAP
	// attacker of the paper does not.
	SolvePoW bool
	// MaxSolveBits caps the attacker's per-challenge work when SolvePoW
	// is on. Default 24.
	MaxSolveBits uint8
}

func (c Config) withDefaults() Config {
	if c.DeclaredDegreeMin == 0 {
		c.DeclaredDegreeMin = 1
	}
	if c.DeclaredDegreeMax == 0 {
		c.DeclaredDegreeMax = 3
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 30 * time.Second
	}
	if c.MaxClonesPerTarget == 0 {
		c.MaxClonesPerTarget = 24
	}
	if c.NoNSubset == 0 {
		c.NoNSubset = 3
	}
	if c.MaxSolveBits == 0 {
		c.MaxSolveBits = 24
	}
	return c
}

// Stats counts campaign activity.
type Stats struct {
	ClonesCreated   int
	BotsDiscovered  int
	BotsContained   int
	PeeringAccepted int
	PeeringRejected int
	MessagesBlocked int // broadcast/directed traffic clones refused to relay
	// WorkHashes is the total proof-of-work the attacker paid against
	// hardened bots — the Section VII-A cost metric.
	WorkHashes uint64
}

// intel is what the attacker knows about one discovered bot.
type intel struct {
	neighbors  []string // latest known peer list (acks + NoN gossip)
	discovered time.Time
	clones     int // clones assigned to this target
	contained  bool
}

// Attacker runs a SOAP campaign from a single machine. All clones are
// hidden services on one proxy — the IP/.onion decoupling means the
// botnet cannot tell.
type Attacker struct {
	net   *tor.Network
	proxy *tor.OnionProxy
	rng   *sim.RNG
	drbg  *botcrypto.DRBG
	cfg   Config

	netKey  []byte // recovered from the captured bot
	netSeal *botcrypto.SealKey
	sealBuf [botcrypto.SealedSize]byte
	encBuf  [botcrypto.MaxSealedPlaintext]byte // envelope encoding scratch

	clones    map[string]*clone // by onion
	cloneList []string          // creation order, for NoN subsets
	siblings  []string          // cloneSiblings' scratch pool
	intel     map[string]*intel // by bot onion
	queue     []string          // discovered, not yet contacted
	running   bool
	stats     Stats
}

// NewAttacker prepares a campaign. netKey is the network sealing key
// recovered by reverse-engineering a captured bot.
func NewAttacker(net *tor.Network, netKey []byte, cfg Config) *Attacker {
	return &Attacker{
		net:     net,
		proxy:   tor.NewProxy(net),
		rng:     net.RNG(),
		drbg:    botcrypto.NewDRBG([]byte("soap-attacker")),
		cfg:     cfg.withDefaults(),
		netKey:  append([]byte(nil), netKey...),
		netSeal: botcrypto.NewSealKey(netKey),
		clones:  make(map[string]*clone),
		intel:   make(map[string]*intel),
	}
}

// Stats returns a copy of the campaign counters.
func (a *Attacker) Stats() Stats { return a.stats }

// IsClone reports whether an onion address is one of the attacker's.
func (a *Attacker) IsClone(onion string) bool {
	_, ok := a.clones[onion]
	return ok
}

// KnownBots lists discovered bot addresses, sorted.
func (a *Attacker) KnownBots() []string {
	out := make([]string, 0, len(a.intel))
	for o := range a.intel {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Contained reports whether a bot's entire neighborhood is clones.
func (a *Attacker) Contained(onion string) bool {
	it, ok := a.intel[onion]
	return ok && it.contained
}

// ContainedCount reports how many discovered bots are contained.
func (a *Attacker) ContainedCount() int {
	n := 0
	for _, it := range a.intel {
		if it.contained {
			n++
		}
	}
	return n
}

// Start begins the campaign from a captured bot's address and schedules
// clone waves on the network's virtual clock.
func (a *Attacker) Start(entry string) {
	a.discover(entry)
	if a.running {
		return
	}
	a.running = true
	a.net.Scheduler().Every(a.cfg.RoundInterval, func() bool {
		a.tick()
		return a.running
	})
}

// Stop halts further waves (existing clones keep answering, keeping
// contained bots contained).
func (a *Attacker) Stop() { a.running = false }

// discover registers a bot address.
func (a *Attacker) discover(onion string) {
	if onion == "" || a.IsClone(onion) {
		return
	}
	if _, known := a.intel[onion]; known {
		return
	}
	a.intel[onion] = &intel{discovered: a.net.Now()}
	a.queue = append(a.queue, onion)
	a.stats.BotsDiscovered++
}

// tick runs one campaign wave: contact fresh discoveries and press each
// uncontained target with one more clone.
func (a *Attacker) tick() {
	// Contact everything newly discovered.
	fresh := a.queue
	a.queue = nil
	for _, onion := range fresh {
		a.pressTarget(onion)
	}
	// Press every known, uncontained target.
	for _, onion := range a.KnownBots() {
		it := a.intel[onion]
		if it.contained || it.clones >= a.cfg.MaxClonesPerTarget {
			continue
		}
		if len(fresh) > 0 && containsString(fresh, onion) {
			continue // already pressed this tick
		}
		a.pressTarget(onion)
	}
	// Clones gossip clone-only NoN lists, poisoning repair candidates.
	for _, onion := range a.cloneList {
		a.clones[onion].gossip()
	}
	a.refreshContainment()
}

// pressTarget sends one more clone at a bot.
func (a *Attacker) pressTarget(target string) {
	it, ok := a.intel[target]
	if !ok || it.contained || it.clones >= a.cfg.MaxClonesPerTarget {
		return
	}
	c, err := a.newClone(target)
	if err != nil {
		return
	}
	it.clones++
	c.contact(target)
}

// refreshContainment recomputes containment from the latest intel, in
// both directions: bots become contained when every known neighbor is a
// clone, and — crucially — contained bots that regained a benign edge
// (repair, hotlist re-rally) go back on the target list. The paper's
// clones repeat the process "until T has no more benign neighbors",
// which requires this vigilance.
func (a *Attacker) refreshContainment() {
	for _, onion := range a.KnownBots() {
		it := a.intel[onion]
		if len(it.neighbors) == 0 {
			continue
		}
		all := true
		for _, n := range it.neighbors {
			if !a.IsClone(n) {
				all = false
				break
			}
		}
		switch {
		case all && !it.contained:
			it.contained = true
			a.stats.BotsContained++
		case !all && it.contained:
			it.contained = false
			a.stats.BotsContained--
		}
	}
}

// learnNeighbors ingests a bot's current peer list (from a PEER_ACK or
// NoN gossip): update intel and enqueue new discoveries.
func (a *Attacker) learnNeighbors(bot string, neighbors []string) {
	if a.IsClone(bot) {
		return
	}
	it, ok := a.intel[bot]
	if !ok {
		a.discover(bot)
		it = a.intel[bot]
	}
	it.neighbors = append([]string(nil), neighbors...)
	for _, n := range neighbors {
		if !a.IsClone(n) {
			a.discover(n)
		}
	}
}

// cloneSiblings picks a subset of clone addresses to disclose as a
// clone's "neighbors". It draws exactly what sim.Sample would, but
// shuffles a pool the Attacker owns: the returned view is valid only
// until the next call, so callers encode it at once.
func (a *Attacker) cloneSiblings(exclude string) []string {
	pool := a.siblings[:0]
	for _, o := range a.cloneList {
		if o != exclude {
			pool = append(pool, o)
		}
	}
	a.siblings = pool
	a.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(max(a.cfg.NoNSubset, 0), len(pool))]
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// clone is one sybil hidden service.
type clone struct {
	a              *Attacker
	identity       *tor.Identity
	declaredDegree int
	target         string
	proofNonce     uint64
	proofBits      uint8
	retries        int
}

// newClone mints a sybil and hosts it on the attacker's single proxy.
func (a *Attacker) newClone(target string) (*clone, error) {
	var seed [32]byte
	copy(seed[:], a.drbg.Bytes(32))
	c := &clone{
		a:        a,
		identity: tor.IdentityFromSeed(seed),
		declaredDegree: a.cfg.DeclaredDegreeMin +
			a.rng.Intn(a.cfg.DeclaredDegreeMax-a.cfg.DeclaredDegreeMin+1),
		target: target,
	}
	if _, err := a.proxy.Host(c.identity, c.onInboundConn); err != nil {
		return nil, fmt.Errorf("soap: host clone: %w", err)
	}
	a.clones[c.identity.Onion()] = c
	a.cloneList = append(a.cloneList, c.identity.Onion())
	a.stats.ClonesCreated++
	return c, nil
}

func (c *clone) onion() string { return c.identity.Onion() }

// contact dials the target and requests peering with the lying degree,
// attaching any solved proof-of-work.
func (c *clone) contact(target string) {
	conn, err := c.a.proxy.Dial(target)
	if err != nil {
		return // target down or rotated; intel will refresh via others
	}
	conn.SetHandler(func(msg []byte) { c.onMessage(conn, target, msg) })
	req := &core.PeerReq{
		Onion:      c.onion(),
		Degree:     c.declaredDegree,
		ProofNonce: c.proofNonce,
		ProofBits:  c.proofBits,
	}
	c.proofNonce, c.proofBits = 0, 0 // proofs are one-shot
	env := &core.Envelope{Type: core.MsgPeerReq, MsgID: c.newMsgID(), Payload: req.Encode()}
	_ = c.send(conn, env)
}

// gossip sends a clone-only NoN list to the assigned target over a
// fresh dial (clones are patient; they re-dial every wave).
func (c *clone) gossip() {
	if c.target == "" {
		return
	}
	it, ok := c.a.intel[c.target]
	if !ok || !containsString(it.neighbors, c.onion()) {
		return // not currently peered with the target; skip
	}
	conn, err := c.a.proxy.Dial(c.target)
	if err != nil {
		return
	}
	conn.SetHandler(func(msg []byte) { c.onMessage(conn, c.target, msg) })
	up := &core.NoNUpdate{
		Onion:     c.onion(),
		Degree:    c.declaredDegree,
		Neighbors: c.a.cloneSiblings(c.onion()),
	}
	env := &core.Envelope{Type: core.MsgNoNUpdate, MsgID: c.newMsgID(), Payload: up.Encode()}
	_ = c.send(conn, env)
}

func (c *clone) newMsgID() [16]byte {
	var id [16]byte
	copy(id[:], c.a.drbg.Bytes(16))
	return id
}

func (c *clone) send(conn *tor.Conn, env *core.Envelope) error {
	if err := c.a.netSeal.SealSizedInto(c.a.sealBuf[:], env.AppendTo(c.a.encBuf[:0]), c.a.drbg); err != nil {
		return err
	}
	return conn.Send(c.a.sealBuf[:])
}

// onInboundConn handles bots dialing the clone (repair attempts pulled
// toward the trap).
func (c *clone) onInboundConn(conn *tor.Conn) {
	conn.SetHandler(func(msg []byte) { c.onMessage(conn, "", msg) })
}

// onMessage speaks just enough of the protocol to hold a neighborhood:
// accept all peering, answer pings, watch gossip — and silently drop
// every command (that is the neutralization).
func (c *clone) onMessage(conn *tor.Conn, dialed string, raw []byte) {
	plain, err := c.a.netSeal.OpenView(raw)
	if err != nil {
		return
	}
	env, err := core.DecodeEnvelope(plain)
	if err != nil {
		return
	}
	switch env.Type {
	case core.MsgPeerAck:
		ack, err := core.DecodePeerAck(env.Payload)
		if err != nil {
			return
		}
		if ack.Accepted {
			c.a.stats.PeeringAccepted++
		} else {
			c.a.stats.PeeringRejected++
		}
		// Either way the ack leaks the bot's current neighbor list.
		who := ack.Onion
		if who == "" {
			who = dialed
		}
		c.a.learnNeighbors(who, ack.Neighbors)
		// Hardened bot: pay the proof-of-work bill if configured to.
		if !ack.Accepted && ack.Challenge != nil && ack.RequiredBits > 0 &&
			c.a.cfg.SolvePoW && ack.RequiredBits <= c.a.cfg.MaxSolveBits &&
			c.retries < 3 && who != "" {
			c.retries++
			nonce, hashes := pow.Solve(ack.Challenge, ack.RequiredBits)
			c.a.stats.WorkHashes += hashes
			c.proofNonce, c.proofBits = nonce, ack.RequiredBits
			c.contact(who)
		}
	case core.MsgPeerReq:
		req, err := core.DecodePeerReq(env.Payload)
		if err != nil {
			return
		}
		if !c.a.IsClone(req.Onion) {
			c.a.discover(req.Onion)
		}
		ack := &core.PeerAck{
			Accepted:  true,
			Onion:     c.onion(),
			Degree:    c.declaredDegree,
			Neighbors: c.a.cloneSiblings(c.onion()),
		}
		_ = c.send(conn, &core.Envelope{Type: core.MsgPeerAck, MsgID: c.newMsgID(), Payload: ack.Encode()})
	case core.MsgNoNUpdate:
		up, err := core.DecodeNoNUpdate(env.Payload)
		if err != nil {
			return
		}
		c.a.learnNeighbors(up.Onion, up.Neighbors)
	case core.MsgAddrChange:
		ch, err := core.DecodeAddrChange(env.Payload)
		if err != nil {
			return
		}
		if it, ok := c.a.intel[ch.OldOnion]; ok {
			delete(c.a.intel, ch.OldOnion)
			c.a.intel[ch.NewOnion] = it
			if c.target == ch.OldOnion {
				c.target = ch.NewOnion
			}
		}
	case core.MsgPing:
		_ = c.send(conn, &core.Envelope{Type: core.MsgPong, MsgID: c.newMsgID()})
	case core.MsgBroadcast, core.MsgDirected:
		// Containment in action: clones never relay C&C traffic.
		c.a.stats.MessagesBlocked++
	}
}
