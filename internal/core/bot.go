package core

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"fmt"
	"sort"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/pow"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// Stage is the bot life-cycle state (Section IV-A).
type Stage int

// Life-cycle stages.
const (
	StageInfection Stage = iota + 1
	StageRally
	StageWaiting
	StageExecution
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageInfection:
		return "infection"
	case StageRally:
		return "rally"
	case StageWaiting:
		return "waiting"
	case StageExecution:
		return "execution"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// DirectedSealSize is the wire size of the inner seal of a directed
// command (sealed to one bot's K_B). It is smaller than the transport
// seal so a directed command still fits inside a flooded envelope.
const DirectedSealSize = 400

// BotConfig tunes a bot's protocol behaviour.
type BotConfig struct {
	// DMin and DMax bound the peer list, as in the DDSR maintenance
	// rules. Defaults 3 and 6.
	DMin, DMax int
	// PingInterval is the dead-peer probe period (virtual time).
	// Default 1m.
	PingInterval time.Duration
	// NoNInterval is the neighbor-list gossip period. Default 5m.
	NoNInterval time.Duration
	// FloodTTL bounds broadcast propagation. Default 8.
	FloodTTL uint8
	// Rotation enables periodic .onion address rotation.
	Rotation bool
	// ReplayWindow is the command freshness window. Default 30m.
	ReplayWindow time.Duration
	// MaxSolveBits is the hardest proof-of-work challenge this bot will
	// solve to join a hardened peer (Section VII-A). Default 22.
	MaxSolveBits uint8
	// GossipFanout, when positive, relays flooded messages to that many
	// random peers instead of all of them — the low-message-complexity
	// gossip the paper suggests for SuperOnion probe dissemination
	// (Section VII-B). Zero keeps full flooding.
	GossipFanout int
	// Retry is the dial retry policy installed on every bot proxy (and
	// the botmaster's, via BotNet). The zero value keeps single-attempt
	// dials — byte-identical to a population predating the fault plane.
	Retry tor.RetryPolicy
}

func (c BotConfig) withDefaults() BotConfig {
	if c.DMin == 0 {
		c.DMin = 3
	}
	if c.DMax == 0 {
		c.DMax = 6
	}
	if c.PingInterval == 0 {
		c.PingInterval = time.Minute
	}
	if c.NoNInterval == 0 {
		c.NoNInterval = 5 * time.Minute
	}
	if c.FloodTTL == 0 {
		c.FloodTTL = 8
	}
	if c.ReplayWindow == 0 {
		c.ReplayWindow = 30 * time.Minute
	}
	if c.MaxSolveBits == 0 {
		c.MaxSolveBits = 22
	}
	return c
}

// BotStats counts protocol activity.
type BotStats struct {
	CommandsExecuted int
	MessagesRelayed  int
	PeersAccepted    int
	PeersRejected    int
	PeersPruned      int
	RepairsStarted   int
	Rotations        int
	// HashesSpent is the proof-of-work cost this bot paid to join
	// hardened peers — the honest side of the Section VII-A trade-off.
	HashesSpent uint64
	// RallyFailures counts C&C reports that exhausted their dial budget;
	// RallyRetries counts queued re-rallies that actually fired. Both
	// stay zero unless the infrastructure misbehaves.
	RallyFailures int
	RallyRetries  int
}

// ExecRecord logs one executed command.
type ExecRecord struct {
	Name   string
	Args   []byte
	At     time.Time
	Rented bool
}

// peerInfo is what a bot knows about one peer: its current address, the
// connection, its last declared degree, and its neighbor list (the NoN
// knowledge that powers self-repair).
type peerInfo struct {
	onion     string
	conn      *tor.Conn
	degree    int
	neighbors []string
}

// Bot is one OnionBot node.
type Bot struct {
	cfg      BotConfig
	net      *tor.Network
	proxy    *tor.OnionProxy
	ownProxy bool
	rng      *sim.RNG
	drbg     *botcrypto.DRBG

	masterSignPub ed25519.PublicKey
	masterEncPub  *ecdh.PublicKey
	netKey        []byte // network-wide sealing key, baked in at infection
	netSeal       *botcrypto.SealKey
	ccOnion       string // hardcoded C&C rally address

	kb        []byte // K_B shared with the botmaster
	kbSeal    *botcrypto.SealKey
	identity  *tor.Identity
	hs        *tor.HiddenService
	hostedFor uint64 // rotation period the current identity was derived for
	sealBuf   [botcrypto.SealedSize]byte
	encBuf    [botcrypto.MaxSealedPlaintext]byte // envelope encoding scratch
	// pendingSealedKB is a pool-pre-derived rally report ({K_B}_PK_CC),
	// consumed by the first reportToCC; later re-rallies seal live.
	pendingSealedKB []byte

	peers   map[string]*peerInfo
	pending map[string]*tor.Conn // dialed, awaiting PEER_ACK
	// dialing marks peer candidates with a dial in flight (a retrying
	// DialAsync resolves later), so overlapping acquisition rounds do
	// not double-dial one candidate.
	dialing map[string]struct{}
	seen    map[[16]byte]struct{}
	guard   *botcrypto.ReplayGuard

	stage    Stage
	alive    bool
	executed []ExecRecord
	stats    BotStats
	// owner and rosterIdx tie the bot into its BotNet's flat alive
	// index (see aliveIndex): set once at adoption, consulted once at
	// takedown. Two inline words replace the per-bot closure the old
	// layout allocated for the same job.
	owner     *BotNet
	rosterIdx int32
	// lastHotlistQuery rate-limits re-rallying when the bot is starved
	// of peer candidates.
	lastHotlistQuery time.Time
	// reRallyPending / rallyFailed drive the graceful-degradation path:
	// a failed C&C report queues one bounded-backoff re-rally instead of
	// dropping off the C&C. rallyFailed counts consecutive exhausted
	// reports and resets on the first success.
	reRallyPending bool
	rallyFailed    int

	// proofs caches solved challenges per target onion, consumed by the
	// retry request.
	proofs   map[string]proofEntry
	attempts map[string]int

	// AcceptVet, when set, gates inbound peering with a
	// challenge-response (internal/pow wires an Admission here). A
	// false result rejects the request and sends the returned
	// challenge/difficulty back to the requester.
	AcceptVet func(onion string, proofNonce uint64, proofBits uint8) (ok bool, challenge []byte, requiredBits uint8)

	// ProbeKey and OnProbe support SuperOnion connectivity probes
	// (Section VII-B): a directed flood whose inner seal opens under
	// ProbeKey is reported via OnProbe and still relayed onward, so
	// sibling virtual nodes behind this one see it too.
	ProbeKey []byte
	OnProbe  func(inner []byte)

	// probeSeal caches the expanded sealing session for ProbeKey,
	// rebuilt whenever the key is set or swapped.
	probeSeal    *botcrypto.SealKey
	probeSealSrc []byte
}

type proofEntry struct {
	nonce uint64
	bits  uint8
}

// NewBot creates a bot in the infection stage: it derives K_B and its
// first .onion identity, and starts its hidden service. seed
// individualizes the bot deterministically.
func NewBot(net *tor.Network, cfg BotConfig, masterSignPub ed25519.PublicKey,
	masterEncPub *ecdh.PublicKey, netKey []byte, ccOnion string, seed []byte) (*Bot, error) {
	b, err := NewBotOnProxy(tor.NewProxy(net), net, cfg, masterSignPub, masterEncPub, netKey, ccOnion, seed)
	if err != nil {
		return nil, err
	}
	b.ownProxy = true
	return b, nil
}

// NewBotOnProxy is NewBot with a caller-supplied proxy, so several
// virtual bots can share one physical host (the SuperOnion layout).
func NewBotOnProxy(proxy *tor.OnionProxy, net *tor.Network, cfg BotConfig, masterSignPub ed25519.PublicKey,
	masterEncPub *ecdh.PublicKey, netKey []byte, ccOnion string, seed []byte) (*Bot, error) {
	b := &Bot{
		cfg:           cfg.withDefaults(),
		net:           net,
		proxy:         proxy,
		rng:           net.RNG(),
		drbg:          botcrypto.NewDRBG(append([]byte("bot:"), seed...)),
		masterSignPub: masterSignPub,
		masterEncPub:  masterEncPub,
		netKey:        append([]byte(nil), netKey...),
		ccOnion:       ccOnion,
		peers:         make(map[string]*peerInfo),
		pending:       make(map[string]*tor.Conn),
		dialing:       make(map[string]struct{}),
		seen:          make(map[[16]byte]struct{}),
		proofs:        make(map[string]proofEntry),
		attempts:      make(map[string]int),
		stage:         StageInfection,
		alive:         true,
	}
	b.guard = botcrypto.NewReplayGuard(b.cfg.ReplayWindow)
	if b.cfg.Retry.Enabled() {
		proxy.Retry = b.cfg.Retry
	}
	b.kb = b.drbg.Bytes(botcrypto.BotKeySize)
	b.netSeal = botcrypto.NewSealKey(b.netKey)
	b.kbSeal = botcrypto.NewSealKey(b.kb)
	if err := b.hostCurrentIdentity(); err != nil {
		return nil, err
	}
	b.startTimers()
	return b, nil
}

// newBotWithMaterial builds a bot from pool-pre-derived key material
// (see core.IdentityPool): the DRBG arrives positioned past the birth
// reads, K_B and the identity are already derived, the sealing sessions
// already expanded, and the rally report already sealed — so only the
// hosting handshake and timers remain. The result is byte-equivalent to
// NewBot with the same seed.
func newBotWithMaterial(proxy *tor.OnionProxy, net *tor.Network, cfg BotConfig,
	masterSignPub ed25519.PublicKey, masterEncPub *ecdh.PublicKey, ccOnion string,
	mat *botcrypto.BotMaterial) (*Bot, error) {
	b := &Bot{
		cfg:             cfg.withDefaults(),
		net:             net,
		proxy:           proxy,
		rng:             net.RNG(),
		drbg:            mat.DRBG,
		masterSignPub:   masterSignPub,
		masterEncPub:    masterEncPub,
		ccOnion:         ccOnion,
		kb:              mat.KB,
		netKey:          mat.NetKey,
		netSeal:         mat.NetSeal,
		kbSeal:          mat.KBSeal,
		pendingSealedKB: mat.SealedKB,
		peers:           make(map[string]*peerInfo),
		pending:         make(map[string]*tor.Conn),
		dialing:         make(map[string]struct{}),
		seen:            make(map[[16]byte]struct{}),
		proofs:          make(map[string]proofEntry),
		attempts:        make(map[string]int),
		stage:           StageInfection,
		alive:           true,
	}
	b.guard = botcrypto.NewReplayGuard(b.cfg.ReplayWindow)
	if b.cfg.Retry.Enabled() {
		proxy.Retry = b.cfg.Retry
	}
	hs, err := b.proxy.Host(mat.Identity, b.onInboundConn)
	if err != nil {
		return nil, fmt.Errorf("core: host identity: %w", err)
	}
	b.identity = mat.Identity
	b.hs = hs
	b.hostedFor = mat.Period
	b.startTimers()
	return b, nil
}

// hostCurrentIdentity derives the identity for the current period and
// hosts it.
func (b *Bot) hostCurrentIdentity() error {
	ip := botcrypto.PeriodIndex(b.net.Now())
	id := botcrypto.DeriveIdentity(b.masterSignPub, b.kb, ip)
	hs, err := b.proxy.Host(id, b.onInboundConn)
	if err != nil {
		return fmt.Errorf("core: host identity: %w", err)
	}
	b.identity = id
	b.hs = hs
	b.hostedFor = ip
	return nil
}

// Tags a bot subscribes its batched timers under (see Bot.BatchTick).
const (
	botTickPing uint8 = iota
	botTickGossip
	botTickRotate
)

// startTimers installs the bot's recurring maintenance timers. They are
// batched: every bot infected at the same virtual instant with the same
// periods shares one wheel event per period (ping/repair beacons, NoN
// gossip, rotation), so a 10^5-bot population schedules a handful of
// events per period instead of 3·10^5 — with firing order identical to
// per-bot timers for contiguously created populations (see
// sim.EveryBatched's ordering contract). The subscriptions are
// (Ticker, tag) pairs: a tick streams flat subscriber arrays instead of
// chasing captured-variable blocks per bot.
func (b *Bot) startTimers() {
	sched := b.net.Scheduler()
	sched.EveryBatched(b.cfg.PingInterval, b, botTickPing)
	sched.EveryBatched(b.cfg.NoNInterval, b, botTickGossip)
	if b.cfg.Rotation {
		sched.EveryBatched(time.Hour, b, botTickRotate)
	}
}

// BatchTick dispatches one batched maintenance duty (sim.Ticker): dead
// bots unsubscribe, live ones run the duty the tag names.
func (b *Bot) BatchTick(tag uint8) bool {
	if !b.alive {
		return false
	}
	switch tag {
	case botTickPing:
		b.pingTick()
	case botTickGossip:
		b.gossipNoN()
	case botTickRotate:
		b.maybeRotate()
	}
	return true
}

// Onion reports the bot's current address.
func (b *Bot) Onion() string { return b.identity.Onion() }

// KB exposes the bot's shared key (the botmaster holds it too).
func (b *Bot) KB() []byte { return append([]byte(nil), b.kb...) }

// Stage reports the life-cycle stage.
func (b *Bot) Stage() Stage { return b.stage }

// Alive reports whether the bot is running.
func (b *Bot) Alive() bool { return b.alive }

// Stats returns a copy of the counters.
func (b *Bot) Stats() BotStats { return b.stats }

// Executed returns the commands this bot ran.
func (b *Bot) Executed() []ExecRecord {
	return append([]ExecRecord(nil), b.executed...)
}

// Degree reports the current peer count.
func (b *Bot) Degree() int { return len(b.peers) }

// PeerOnions lists current peer addresses, sorted.
func (b *Bot) PeerOnions() []string {
	out := make([]string, 0, len(b.peers))
	for o := range b.peers {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// NeighborsOf reports the bot's NoN knowledge for one peer.
func (b *Bot) NeighborsOf(peerOnion string) []string {
	p, ok := b.peers[peerOnion]
	if !ok {
		return nil
	}
	return append([]string(nil), p.neighbors...)
}

// Takedown models the node being cleaned up or seized: the hidden
// service stops, every circuit dies, timers unwind. A bot sharing its
// proxy with siblings (SuperOnion virtual node) tears down only its own
// service and connections.
func (b *Bot) Takedown() {
	if !b.alive {
		return
	}
	b.alive = false
	if b.owner != nil {
		b.owner.alive.remove(b.rosterIdx)
	}
	if b.ownProxy {
		b.proxy.Shutdown()
	} else {
		b.hs.Stop()
		for _, p := range b.peers {
			p.conn.Close()
		}
		for _, c := range b.pending {
			c.Close()
		}
	}
	b.peers = make(map[string]*peerInfo)
	b.pending = make(map[string]*tor.Conn)
	b.dialing = make(map[string]struct{})
}

// Rally performs the rally stage: report K_B to the C&C and request
// peering with the bootstrap list (Section IV-B). Peering completes
// asynchronously as PEER_ACK messages arrive. An unreachable C&C no
// longer aborts the rally: the bot still peers with its bootstrap
// candidates (NoN membership survives) and queues a bounded-backoff
// re-rally, so infrastructure faults degrade the C&C link gracefully
// instead of dropping the bot off the botnet.
func (b *Bot) Rally(bootstrap []string) error {
	b.stage = StageRally
	if err := b.reportToCC(); err != nil {
		return err
	}
	for _, onion := range bootstrap {
		b.requestPeering(onion)
	}
	b.stage = StageWaiting
	return nil
}

// reRally backoff bounds: a failed C&C report re-queues with this base
// delay doubled per consecutive failure (capped), giving up after
// maxReRallyAttempts — after which the pingTick hotlist fallback is the
// remaining pull-based path back to the C&C.
const (
	maxReRallyAttempts = 8
	reRallyBase        = 10 * time.Minute
	reRallyMax         = 2 * time.Hour
)

// reportToCC dials the hardcoded C&C address and delivers
// {current onion, {K_B}_PK_CC}. A hotlist-enabled C&C answers with
// bootstrap candidates, which the bot peers with. The dial runs under
// the proxy's retry policy; exhausting the budget counts a rally
// failure and queues a re-rally rather than erroring. Only seal
// construction can fail synchronously.
func (b *Bot) reportToCC() error {
	if b.ccOnion == "" {
		return nil // experiment without a C&C
	}
	sealedKB := b.pendingSealedKB
	if sealedKB != nil {
		b.pendingSealedKB = nil // the pool pre-sealed the first report
	} else {
		var err error
		sealedKB, err = botcrypto.SealToPublic(b.masterEncPub, b.kb, b.drbg)
		if err != nil {
			return err
		}
	}
	b.proxy.DialAsync(b.ccOnion, func(conn *tor.Conn, err error) {
		if err != nil {
			b.stats.RallyFailures++
			b.queueReRally()
			return
		}
		if !b.alive {
			conn.Close()
			return
		}
		b.rallyFailed = 0
		conn.SetHandler(func(msg []byte) { b.onCCReply(msg) })
		rep := &Report{Onion: b.Onion(), SealedKB: sealedKB}
		env := &Envelope{Type: MsgReport, MsgID: b.newMsgID(), Payload: rep.Encode()}
		_ = b.sendEnvelope(conn, env)
	})
	return nil
}

// queueReRally schedules one retry of the C&C report with exponential
// backoff on the virtual clock. At most one re-rally is pending at a
// time, and the bot gives up after maxReRallyAttempts consecutive
// failures.
func (b *Bot) queueReRally() {
	if b.reRallyPending || !b.alive || b.rallyFailed >= maxReRallyAttempts {
		return
	}
	b.rallyFailed++
	delay := reRallyBase << (b.rallyFailed - 1)
	if delay > reRallyMax {
		delay = reRallyMax
	}
	b.reRallyPending = true
	b.net.Scheduler().After(delay, func() {
		b.reRallyPending = false
		if !b.alive {
			return
		}
		b.stats.RallyRetries++
		_ = b.reportToCC()
	})
}

// onCCReply consumes the C&C's rally answer: a hotlist of registered
// bot addresses to bootstrap from.
func (b *Bot) onCCReply(raw []byte) {
	if !b.alive {
		return
	}
	plain, err := b.netSeal.Open(raw)
	if err != nil {
		return
	}
	env, err := DecodeEnvelope(plain)
	if err != nil || env.Type != MsgNoNUpdate {
		return
	}
	up, err := DecodeNoNUpdate(env.Payload)
	if err != nil {
		return
	}
	for _, cand := range trimSelf(up.Neighbors, b.Onion()) {
		if len(b.peers)+len(b.pending) >= b.cfg.DMax {
			break
		}
		b.requestPeering(cand)
	}
}

// requestPeering dials a candidate and sends PEER_REQ with the bot's
// truthfully declared degree. The dial runs under the proxy's retry
// policy; with retries enabled it may resolve after backoff, so the
// candidate is parked in the dialing set to stop overlapping
// acquisition rounds from double-dialing it.
func (b *Bot) requestPeering(onion string) {
	if onion == "" || onion == b.Onion() {
		return
	}
	if _, dup := b.peers[onion]; dup {
		return
	}
	if _, dup := b.pending[onion]; dup {
		return
	}
	if _, dup := b.dialing[onion]; dup {
		return
	}
	b.dialing[onion] = struct{}{}
	b.proxy.DialAsync(onion, func(conn *tor.Conn, err error) {
		delete(b.dialing, onion)
		if err != nil {
			return // candidate unreachable (taken down or rotated away)
		}
		if !b.alive {
			conn.Close()
			return
		}
		// A retried dial resolves later; the candidate may have peered
		// with us (or a parallel round) in the meantime.
		if _, dup := b.peers[onion]; dup {
			conn.Close()
			return
		}
		if _, dup := b.pending[onion]; dup {
			conn.Close()
			return
		}
		b.pending[onion] = conn
		conn.SetHandler(func(msg []byte) { b.onMessage(conn, msg) })
		req := &PeerReq{Onion: b.Onion(), Degree: b.Degree()}
		if pr, ok := b.proofs[onion]; ok {
			req.ProofNonce, req.ProofBits = pr.nonce, pr.bits
			delete(b.proofs, onion) // challenges are one-shot
		}
		env := &Envelope{Type: MsgPeerReq, MsgID: b.newMsgID(), Payload: req.Encode()}
		if err := b.sendEnvelope(conn, env); err != nil {
			delete(b.pending, onion)
		}
	})
}

// probeSealKey returns the cached sealing session for ProbeKey,
// rebuilding it when the key is first set or swapped by the SuperOnion
// host.
func (b *Bot) probeSealKey() *botcrypto.SealKey {
	if b.probeSeal == nil || !bytes.Equal(b.probeSealSrc, b.ProbeKey) {
		b.probeSeal = botcrypto.NewSealKey(b.ProbeKey)
		b.probeSealSrc = append([]byte(nil), b.ProbeKey...)
	}
	return b.probeSeal
}

// onInboundConn wires up an anonymous inbound connection.
func (b *Bot) onInboundConn(conn *tor.Conn) {
	conn.SetHandler(func(msg []byte) { b.onMessage(conn, msg) })
}

// sendEnvelope seals and transmits an envelope on a connection. The
// encoding and the seal go into per-bot scratch buffers: the transport
// copies payload bytes into wire cells immediately, so nothing retains
// them.
func (b *Bot) sendEnvelope(conn *tor.Conn, env *Envelope) error {
	if err := b.netSeal.SealSizedInto(b.sealBuf[:], env.AppendTo(b.encBuf[:0]), b.drbg); err != nil {
		return err
	}
	return conn.Send(b.sealBuf[:])
}

func (b *Bot) newMsgID() [16]byte {
	var id [16]byte
	copy(id[:], b.drbg.Bytes(16))
	return id
}

// onMessage handles one sealed wire message.
func (b *Bot) onMessage(conn *tor.Conn, raw []byte) {
	if !b.alive {
		return
	}
	plain, err := b.netSeal.OpenView(raw)
	if err != nil {
		// Not a network envelope; try a direct command sealed to K_B.
		if inner, derr := b.kbSeal.Open(raw); derr == nil {
			b.handleDirectedPlain(inner)
		}
		return
	}
	env, err := DecodeEnvelope(plain)
	if err != nil {
		return
	}
	switch env.Type {
	case MsgPeerReq:
		b.handlePeerReq(conn, env)
	case MsgPeerAck:
		b.handlePeerAck(conn, env)
	case MsgNoNUpdate:
		b.handleNoNUpdate(env)
	case MsgAddrChange:
		b.handleAddrChange(conn, env)
	case MsgPing:
		pong := &Envelope{Type: MsgPong, MsgID: b.newMsgID()}
		_ = b.sendEnvelope(conn, pong)
	case MsgPong:
		// Liveness is tracked via conn state; nothing to do.
	case MsgBroadcast:
		b.handleBroadcast(env)
	case MsgDirected:
		b.handleDirected(env)
	case MsgReport:
		// Only the C&C consumes reports; bots ignore them.
	}
}

// handlePeerReq applies the acceptance rule: accept under DMax;
// otherwise displace the highest-declared-degree peer when the
// requester declares less. This single rule realizes DDSR pruning at
// the protocol level — and is precisely what SOAP clones exploit by
// declaring tiny degrees.
func (b *Bot) handlePeerReq(conn *tor.Conn, env *Envelope) {
	req, err := DecodePeerReq(env.Payload)
	if err != nil || req.Onion == b.Onion() {
		return
	}
	if b.AcceptVet != nil {
		ok, challenge, required := b.AcceptVet(req.Onion, req.ProofNonce, req.ProofBits)
		if !ok {
			b.stats.PeersRejected++
			ack := &PeerAck{
				Accepted:     false,
				Onion:        b.Onion(),
				Degree:       b.Degree(),
				Neighbors:    b.PeerOnions(),
				Challenge:    challenge,
				RequiredBits: required,
			}
			_ = b.sendEnvelope(conn, &Envelope{Type: MsgPeerAck, MsgID: b.newMsgID(), Payload: ack.Encode()})
			return
		}
	}
	accepted := false
	if existing, dup := b.peers[req.Onion]; dup {
		// Refresh: replace the connection, keep the entry.
		existing.conn = conn
		existing.degree = req.Degree
		accepted = true
	} else if len(b.peers) < b.cfg.DMax {
		accepted = true
	} else if victim := b.highestDegreePeer(); victim != "" &&
		req.Degree < b.peers[victim].degree {
		b.forgetPeer(victim)
		b.stats.PeersPruned++
		accepted = true
	}

	ack := &PeerAck{
		Accepted:  accepted,
		Onion:     b.Onion(),
		Degree:    b.Degree(),
		Neighbors: b.PeerOnions(),
	}
	if accepted {
		if _, dup := b.peers[req.Onion]; !dup {
			b.peers[req.Onion] = &peerInfo{onion: req.Onion, conn: conn, degree: req.Degree}
			b.stats.PeersAccepted++
		}
	} else {
		b.stats.PeersRejected++
	}
	_ = b.sendEnvelope(conn, &Envelope{Type: MsgPeerAck, MsgID: b.newMsgID(), Payload: ack.Encode()})
}

// handlePeerAck resolves a pending outbound peering request.
func (b *Bot) handlePeerAck(conn *tor.Conn, env *Envelope) {
	ack, err := DecodePeerAck(env.Payload)
	if err != nil {
		return
	}
	var dialed string
	for onion, c := range b.pending {
		if c == conn {
			dialed = onion
			break
		}
	}
	if dialed == "" {
		return // unsolicited ack
	}
	delete(b.pending, dialed)
	if !ack.Accepted {
		conn.Close()
		b.stats.PeersRejected++
		// A PoW-gated rejection carries a challenge: solve it (within
		// our work budget) and retry with the proof.
		if ack.Challenge != nil && ack.RequiredBits > 0 &&
			ack.RequiredBits <= b.cfg.MaxSolveBits && b.attempts[dialed] < 3 {
			b.attempts[dialed]++
			nonce, hashes := pow.Solve(ack.Challenge, ack.RequiredBits)
			b.stats.HashesSpent += hashes
			b.proofs[dialed] = proofEntry{nonce: nonce, bits: ack.RequiredBits}
			b.requestPeering(dialed)
			return
		}
		// Even a rejection teaches us the responder's neighbor list —
		// this is the hotlist lookup (Section IV-B): walk the returned
		// candidates while underpopulated.
		for _, cand := range trimSelf(ack.Neighbors, b.Onion()) {
			if len(b.peers)+len(b.pending) >= b.cfg.DMin {
				break
			}
			b.requestPeering(cand)
		}
		return
	}
	delete(b.attempts, dialed)
	b.peers[ack.Onion] = &peerInfo{
		onion:     ack.Onion,
		conn:      conn,
		degree:    ack.Degree,
		neighbors: trimSelf(ack.Neighbors, b.Onion()),
	}
	b.stats.PeersAccepted++
	// Over-acceptance can push us past DMax (simultaneous joins);
	// prune back, preferring to drop the highest-degree peer.
	for len(b.peers) > b.cfg.DMax {
		victim := b.highestDegreePeer()
		if victim == "" {
			break
		}
		b.forgetPeer(victim)
		b.stats.PeersPruned++
	}
}

// handleNoNUpdate refreshes a peer's neighbor list.
func (b *Bot) handleNoNUpdate(env *Envelope) {
	up, err := DecodeNoNUpdate(env.Payload)
	if err != nil {
		return
	}
	p, ok := b.peers[up.Onion]
	if !ok {
		return
	}
	p.degree = up.Degree
	p.neighbors = trimSelf(up.Neighbors, b.Onion())
}

// handleAddrChange re-keys a peer entry after its rotation.
func (b *Bot) handleAddrChange(conn *tor.Conn, env *Envelope) {
	ch, err := DecodeAddrChange(env.Payload)
	if err != nil {
		return
	}
	p, ok := b.peers[ch.OldOnion]
	if !ok {
		return
	}
	delete(b.peers, ch.OldOnion)
	p.onion = ch.NewOnion
	p.conn = conn // the announcing conn stays live across rotation
	b.peers[ch.NewOnion] = p
}

// handleBroadcast authenticates, executes, and re-floods a broadcast
// command.
func (b *Bot) handleBroadcast(env *Envelope) {
	if _, dup := b.seen[env.MsgID]; dup {
		return
	}
	b.markSeen(env.MsgID)
	cmd, err := DecodeCommand(env.Payload)
	if err != nil {
		return
	}
	if err := cmd.Authorize(b.masterSignPub, b.net.Now(), b.guard); err != nil {
		return // forged, stale or replayed: drop, do not relay
	}
	b.execute(cmd)
	if env.TTL > 0 {
		b.relay(&Envelope{Type: MsgBroadcast, MsgID: env.MsgID, TTL: env.TTL - 1, Payload: env.Payload})
	}
}

// handleDirected tries the inner seal with the bot's own K_B; on
// failure the message is for someone else and is relayed blindly. A
// SuperOnion probe key, when installed, is also tried — probes are
// reported and still relayed so sibling virtual nodes see them.
func (b *Bot) handleDirected(env *Envelope) {
	if _, dup := b.seen[env.MsgID]; dup {
		return
	}
	b.markSeen(env.MsgID)
	if inner, err := b.kbSeal.OpenSized(env.Payload, DirectedSealSize); err == nil {
		b.handleDirectedPlain(inner)
		return
	}
	if b.ProbeKey != nil && b.OnProbe != nil {
		if inner, err := b.probeSealKey().OpenSized(env.Payload, DirectedSealSize); err == nil {
			b.OnProbe(inner)
			// Fall through: the probe must keep flooding.
		}
	}
	if env.TTL > 0 {
		b.relay(&Envelope{Type: MsgDirected, MsgID: env.MsgID, TTL: env.TTL - 1, Payload: env.Payload})
	}
}

// handleDirectedPlain processes a decrypted directed command.
func (b *Bot) handleDirectedPlain(plain []byte) {
	cmd, err := DecodeCommand(plain)
	if err != nil {
		return
	}
	if err := cmd.Authorize(b.masterSignPub, b.net.Now(), b.guard); err != nil {
		return
	}
	b.execute(cmd)
}

// execute runs an authorized command. Maintenance commands act on the
// bot itself; anything else is recorded as an attack-stage execution.
func (b *Bot) execute(cmd *Command) {
	b.stage = StageExecution
	b.executed = append(b.executed, ExecRecord{
		Name:   cmd.Name,
		Args:   append([]byte(nil), cmd.Args...),
		At:     b.net.Now(),
		Rented: cmd.Rental != nil,
	})
	b.stats.CommandsExecuted++
	switch cmd.Name {
	case "rotate":
		b.rotate()
	case "drop-peer":
		b.forgetPeer(string(cmd.Args))
	}
	b.stage = StageWaiting
}

// relay forwards an envelope to peers: all of them under full flooding,
// or a random GossipFanout-sized subset under gossip.
func (b *Bot) relay(env *Envelope) {
	targets := b.PeerOnions()
	if b.cfg.GossipFanout > 0 && b.cfg.GossipFanout < len(targets) {
		targets = sim.Sample(b.rng, targets, b.cfg.GossipFanout)
	}
	for _, onion := range targets {
		p := b.peers[onion]
		if p.conn.Closed() {
			continue
		}
		if err := b.sendEnvelope(p.conn, env); err == nil {
			b.stats.MessagesRelayed++
		}
	}
}

// Inject introduces an envelope into the network at this bot, as the
// C&C does when it pushes a broadcast through an arbitrary bot.
func (b *Bot) Inject(env *Envelope) {
	switch env.Type {
	case MsgBroadcast:
		b.handleBroadcast(env)
	case MsgDirected:
		b.handleDirected(env)
	}
}

// pingTick probes peers and repairs around dead ones.
func (b *Bot) pingTick() {
	for _, onion := range b.PeerOnions() {
		p := b.peers[onion]
		dead := p.conn.Closed()
		if !dead {
			env := &Envelope{Type: MsgPing, MsgID: b.newMsgID()}
			dead = b.sendEnvelope(p.conn, env) != nil
		}
		if dead {
			b.repairAround(p)
		}
	}
	// DMin floor: acquire peers from NoN knowledge when underpopulated.
	if len(b.peers) < b.cfg.DMin {
		cands := b.nonCandidates()
		for _, cand := range cands {
			if len(b.peers)+len(b.pending) >= b.cfg.DMin {
				break
			}
			b.requestPeering(cand)
		}
		// Starved: no NoN knowledge to draw on (e.g. a pendant pair
		// whose other edges were pruned away). Fall back to the
		// pull-based hotlist: re-rally with the C&C, whose reply
		// carries fresh candidates (Section IV-B webcache lookup).
		if len(cands) == 0 && len(b.pending) == 0 &&
			b.net.Now().Sub(b.lastHotlistQuery) > 10*b.cfg.PingInterval {
			b.lastHotlistQuery = b.net.Now()
			_ = b.reportToCC()
		}
	}
}

// repairAround implements the DDSR repair step at the protocol level:
// when a peer dies, connect to its former neighbors (known via NoN).
func (b *Bot) repairAround(dead *peerInfo) {
	delete(b.peers, dead.onion)
	b.stats.RepairsStarted++
	for _, cand := range dead.neighbors {
		if cand == b.Onion() {
			continue
		}
		if _, dup := b.peers[cand]; dup {
			continue
		}
		b.requestPeering(cand)
	}
}

// nonCandidates lists neighbors-of-neighbors not already peered, sorted
// for determinism.
func (b *Bot) nonCandidates() []string {
	set := map[string]struct{}{}
	for _, onion := range b.PeerOnions() {
		for _, nn := range b.peers[onion].neighbors {
			if nn == b.Onion() {
				continue
			}
			if _, dup := b.peers[nn]; dup {
				continue
			}
			set[nn] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// gossipNoN sends the current neighbor list to every peer.
func (b *Bot) gossipNoN() {
	up := &NoNUpdate{Onion: b.Onion(), Degree: b.Degree(), Neighbors: b.PeerOnions()}
	env := &Envelope{Type: MsgNoNUpdate, MsgID: b.newMsgID(), Payload: up.Encode()}
	for _, onion := range b.PeerOnions() {
		p := b.peers[onion]
		if !p.conn.Closed() {
			_ = b.sendEnvelope(p.conn, env)
		}
	}
}

// maybeRotate rotates the bot's address when the period has advanced.
// The derivation is a pure function of (K_B, period), so comparing the
// period the current identity was hosted for is equivalent to deriving
// the candidate identity and comparing addresses — without paying an
// Ed25519 key generation per tick.
func (b *Bot) maybeRotate() {
	if botcrypto.PeriodIndex(b.net.Now()) != b.hostedFor {
		b.rotate()
	}
}

// rotate derives and hosts the identity for the current period,
// announces the change to peers, and stops the old service
// (Section IV-C "Forgetting" plus Section IV-D reachability).
func (b *Bot) rotate() {
	old := b.Onion()
	oldHS := b.hs
	if err := b.hostCurrentIdentity(); err != nil {
		return // keep the old identity alive rather than going dark
	}
	if b.Onion() == old {
		return
	}
	b.stats.Rotations++
	ch := &AddrChange{OldOnion: old, NewOnion: b.Onion()}
	env := &Envelope{Type: MsgAddrChange, MsgID: b.newMsgID(), Payload: ch.Encode()}
	for _, onion := range b.PeerOnions() {
		p := b.peers[onion]
		if !p.conn.Closed() {
			_ = b.sendEnvelope(p.conn, env)
		}
	}
	oldHS.Stop()
}

// markSeen records a flooded message id, bounding the dedup cache.
func (b *Bot) markSeen(id [16]byte) {
	if len(b.seen) > 8192 {
		// Crude but adequate for simulation: drop history; replays of
		// very old messages are caught by the command replay guard.
		b.seen = make(map[[16]byte]struct{})
	}
	b.seen[id] = struct{}{}
}

// forgetPeer drops a peer entry and closes our side of the connection.
func (b *Bot) forgetPeer(onion string) {
	p, ok := b.peers[onion]
	if !ok {
		return
	}
	delete(b.peers, onion)
	p.conn.Close()
}

// highestDegreePeer returns the peer with the largest known degree
// (random tie-break), or "" when the bot has no peers.
func (b *Bot) highestDegreePeer() string {
	best := ""
	bestDeg := -1
	count := 0
	for _, onion := range b.PeerOnions() {
		d := b.peers[onion].degree
		switch {
		case d > bestDeg:
			best, bestDeg, count = onion, d, 1
		case d == bestDeg:
			count++
			if b.rng.Intn(count) == 0 {
				best = onion
			}
		}
	}
	return best
}

func trimSelf(onions []string, self string) []string {
	out := make([]string, 0, len(onions))
	for _, o := range onions {
		if o != self {
			out = append(out, o)
		}
	}
	return out
}
