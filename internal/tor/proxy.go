package tor

import (
	"errors"
	"fmt"
	"time"

	"onionbots/internal/sim"
)

// Dial and hosting errors.
var (
	ErrNoDescriptor  = errors.New("tor: no descriptor available")
	ErrDialFailed    = errors.New("tor: rendezvous failed")
	ErrIntroFailed   = errors.New("tor: introduction failed")
	ErrConnClosed    = errors.New("tor: connection closed")
	ErrServiceExists = errors.New("tor: service already hosted on this proxy")
	ErrStopped       = errors.New("tor: hidden service stopped")
)

// circuitPurpose tags what an origin circuit is for.
type circuitPurpose int

const (
	purposeHSIntro circuitPurpose = iota + 1
	purposeClientIntro
	purposeClientRend
	purposeServiceRend
)

// originCirc is the proxy-side state of a circuit this proxy built.
type originCirc struct {
	id      uint64
	op      *OnionProxy
	hops    []relayCirc // each path relay's state for this circuit
	purpose circuitPurpose
	hs      *HiddenService // for purposeHSIntro
	conn    *Conn          // for rendezvous purposes
	ready   bool           // client rend: RENDEZVOUS2 received
	failed  bool           // END received
	closed  bool           // dropped from the proxy's circuit list
	frag    []byte         // DATA fragment reassembly buffer
	circLinks[originCirc]
}

func (oc *originCirc) links() *circLinks[originCirc] { return &oc.circLinks }

// OnionProxy is a participant's onion proxy (OP): it builds circuits,
// hosts hidden services, and dials .onion addresses. One proxy per
// simulated host. Like Tor, each proxy pins a small set of entry
// guards and builds every circuit through one of them.
type OnionProxy struct {
	net *Network
	// circs lists the proxy's live circuits in id order.
	circs    circList[originCirc, *originCirc]
	services map[ServiceID]*HiddenService
	guards   []Fingerprint
	// guardEpoch is the relay-membership epoch the guard set was last
	// validated against; while it matches the network's, every guard is
	// known alive and refreshGuards returns immediately.
	guardEpoch uint64
	// descCache holds descriptors this proxy has already fetched and
	// signature-verified, keyed by service. See fetchDescriptor.
	descCache map[ServiceID]*descCacheEntry

	// Retry is the proxy's dial retry policy, honored by DialAsync. The
	// zero value (no retries) keeps the proxy byte-identical to one
	// predating the fault plane.
	Retry RetryPolicy
	// guardsDirty forces the next refreshGuards to re-validate the set
	// even when the relay-membership epoch is unchanged; dial failures
	// set it so a broken-but-live-looking guard choice is revisited.
	guardsDirty bool
	// replicaOffset rotates which descriptor replica fetchDescriptor
	// tries first; afterDialFailure bumps it so a retry prefers the
	// other replica's directory set.
	replicaOffset int
}

// descCacheEntry is one verified descriptor retained by a proxy.
type descCacheEntry struct {
	desc   *Descriptor
	period uint64 // TimePeriod the descriptor ids were computed under
}

// numGuards is the entry-guard set size, as in Tor's classic default.
const numGuards = 3

// Guards returns the proxy's current entry guards (selecting them on
// first use).
func (p *OnionProxy) Guards() []Fingerprint {
	p.refreshGuards()
	return append([]Fingerprint(nil), p.guards...)
}

// refreshGuards drops dead guards and tops the set back up from the
// consensus. Liveness only changes when the relay population does, so
// the scan is skipped entirely while the membership epoch is unchanged
// and the set is full — every circuit build otherwise re-probes the
// relay table per guard.
func (p *OnionProxy) refreshGuards() {
	if !p.guardsDirty && p.guardEpoch == p.net.relayEpoch && len(p.guards) >= numGuards {
		return
	}
	p.guardsDirty = false
	alive := p.guards[:0]
	for _, g := range p.guards {
		if p.net.Relay(g) != nil {
			alive = append(alive, g)
		}
	}
	p.guards = alive
	p.guardEpoch = p.net.relayEpoch
	if len(p.guards) >= numGuards {
		return
	}
	c := p.net.Consensus()
	if c == nil {
		return
	}
	exclude := map[Fingerprint]struct{}{}
	for _, g := range p.guards {
		exclude[g] = struct{}{}
	}
	for _, fp := range c.PickRelays(p.net.rng, numGuards-len(p.guards), exclude) {
		p.guards = append(p.guards, fp)
	}
}

// pickPath selects a circuit path entering through one of the proxy's
// guards and ending at terminal (zero-valued terminal means "any").
func (p *OnionProxy) pickPath(terminal Fingerprint) ([]*Relay, error) {
	c := p.net.Consensus()
	if c == nil {
		return nil, ErrNoConsensus
	}
	p.refreshGuards()
	if len(p.guards) == 0 {
		return nil, ErrNotEnoughRelays
	}
	// A guard that is also the terminal would shorten the path; exclude
	// it from the entry choice when possible.
	candidates := make([]Fingerprint, 0, len(p.guards))
	for _, g := range p.guards {
		if g != terminal {
			candidates = append(candidates, g)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: all guards collide with terminal", ErrNotEnoughRelays)
	}
	guard := candidates[p.net.rng.Intn(len(candidates))]

	exclude := map[Fingerprint]struct{}{guard: {}}
	hops := p.net.cfg.PathLen - 1
	var terminalRelay *Relay
	if terminal != (Fingerprint{}) {
		terminalRelay = p.net.Relay(terminal)
		if terminalRelay == nil {
			return nil, fmt.Errorf("tor: terminal relay %s not found", terminal)
		}
		exclude[terminal] = struct{}{}
		hops--
	}
	// The consensus is a stale snapshot: a relay listed there may have
	// died since publication (mid-period crash). Dead picks are excluded
	// and resampled rather than failing the whole path — a client would
	// simply try another relay. With no dead relays the single PickRelays
	// round draws exactly what the pre-resample code drew.
	middles := make([]*Relay, 0, hops)
	for len(middles) < hops {
		picked := c.PickRelays(p.net.rng, hops-len(middles), exclude)
		if len(picked) < hops-len(middles) {
			return nil, fmt.Errorf("%w: need %d middles, consensus offers %d", ErrNotEnoughRelays, hops, len(middles)+len(picked))
		}
		for _, fp := range picked {
			exclude[fp] = struct{}{}
			if r := p.net.Relay(fp); r != nil {
				middles = append(middles, r)
			}
		}
	}
	path := make([]*Relay, 0, p.net.cfg.PathLen)
	path = append(path, p.net.Relay(guard))
	path = append(path, middles...)
	if terminalRelay != nil {
		path = append(path, terminalRelay)
	}
	if path[0] == nil {
		return nil, ErrNotEnoughRelays
	}
	return path, nil
}

// NewProxy attaches a fresh onion proxy to the network.
func NewProxy(n *Network) *OnionProxy {
	return &OnionProxy{
		net:       n,
		services:  make(map[ServiceID]*HiddenService),
		descCache: make(map[ServiceID]*descCacheEntry),
	}
}

// Network returns the proxy's network.
func (p *OnionProxy) Network() *Network { return p.net }

// buildCircuit extends a circuit along path (the completed-handshake
// model). The circuit holds no cipher state: every cell's layers come
// from the network keystream (stream.go), so each relay only records
// its hop index and its neighbours, in one slab per circuit.
func (p *OnionProxy) buildCircuit(path []*Relay, purpose circuitPurpose) *originCirc {
	p.net.nextCirc++
	id := p.net.nextCirc
	oc := &originCirc{id: id, op: p, hops: make([]relayCirc, len(path)), purpose: purpose}
	var ivs [32]byte
	for i, r := range path {
		// These four 64-bit draws per hop are unused. They keep the
		// network's random stream, and with it every pinned output,
		// where it was when each hop drew its own forward and backward IV.
		p.net.rng.Fill(ivs[:])
		rc := &oc.hops[i]
		rc.id, rc.relay, rc.hop = id, r, int32(i)
		if i == 0 {
			rc.origin = oc
		} else {
			rc.prev = &oc.hops[i-1]
		}
		if i+1 < len(path) {
			rc.next = &oc.hops[i+1]
		}
		r.circs.push(rc)
	}
	p.circs.push(oc)
	p.net.stats.CircuitsBuilt++
	return oc
}

// drop removes a circuit from the proxy's live set.
func (p *OnionProxy) drop(oc *originCirc) {
	oc.closed = true
	p.circs.remove(oc)
}

// send originates a cell on the circuit: it cuts a pad frame with one
// layer per hop, applies every layer, and pushes the cell through the
// whole path in one recycled scratch buffer.
func (p *OnionProxy) send(oc *originCirc, cmd Command, flags byte, payload []byte) error {
	cell := Cell{CircID: oc.id, Cmd: cmd, Flags: flags, Payload: payload}
	wire := p.net.getWire()
	defer p.net.putWire(wire)
	if err := cell.encodeInto(wire); err != nil {
		return err
	}
	pad := p.net.getPad(len(oc.hops))
	defer p.net.putPad(pad)
	xorLayers(wire, pad)
	oc.hops[0].receiveForward(wire, pad)
	return nil
}

// deliverBackward receives a backward cell addressed to this origin.
func (p *OnionProxy) deliverBackward(oc *originCirc, wire *[CellSize]byte, pad []byte) {
	if oc.closed {
		return
	}
	xorLayers(wire, pad)
	var cellBuf Cell
	cell := &cellBuf
	if err := decodeCellView(cell, wire); err != nil {
		return
	}
	switch {
	case cell.Cmd == CmdIntroduce2 && oc.purpose == purposeHSIntro:
		if oc.hs != nil {
			oc.hs.onIntroduce2(cell.Payload)
		}
	case cell.Cmd == CmdRendezvous2 && oc.purpose == purposeClientRend:
		oc.ready = true
	case cell.Cmd == CmdData:
		p.onData(oc, cell)
	case cell.Cmd == CmdEnd:
		oc.failed = true
		if oc.conn != nil {
			oc.conn.markClosed()
		}
		p.drop(oc)
	}
}

// onData reassembles message fragments into a network-recycled buffer
// and hands complete messages to the circuit's connection with the
// end-to-end latency of the two joined circuits. Every message waits
// the same delay, so each Conn's deliveries fire in the order they were
// scheduled and one bound callback per Conn pops them from a FIFO.
func (p *OnionProxy) onData(oc *originCirc, cell *Cell) {
	if oc.frag == nil {
		oc.frag = p.net.getMsg()
	}
	oc.frag = append(oc.frag, cell.Payload...)
	if cell.Flags&flagMore != 0 {
		return
	}
	msg := oc.frag
	oc.frag = nil
	conn := oc.conn
	if conn == nil {
		p.net.putMsg(msg)
		return
	}
	conn.inflight = append(conn.inflight, msg)
	delay := p.net.cfg.HopLatency * time.Duration(2*p.net.cfg.PathLen)
	p.net.sched.After(delay, conn.deliverNext)
}

// circuitDestroyed handles a link-level circuit destruction (a relay on
// the path died).
func (p *OnionProxy) circuitDestroyed(oc *originCirc) {
	if oc.closed {
		return
	}
	oc.failed = true
	if oc.conn != nil {
		oc.conn.markClosed()
	}
	p.drop(oc)
}

// teardown sends END up the circuit and drops local state.
func (p *OnionProxy) teardown(oc *originCirc) {
	if oc.closed {
		return
	}
	p.drop(oc)
	oc.hops[0].teardown()
}

// Shutdown closes every circuit and stops every service on this proxy —
// the "host taken down" event.
func (p *OnionProxy) Shutdown() {
	for _, hs := range p.services {
		hs.Stop()
	}
	// Teardown emits relay-side effects (conn closes, cell traffic), so
	// circuits go oldest first. Tearing one down can drop others from
	// the list but never builds one, so the head is always the oldest
	// live circuit.
	for oc := p.circs.head; oc != nil; oc = p.circs.head {
		if oc.conn != nil {
			oc.conn.markClosed()
		}
		p.teardown(oc)
	}
}

// Conn is an established end-to-end hidden-service connection. The
// server side never learns who the client is; the client side knows the
// onion address it dialed.
type Conn struct {
	op     *OnionProxy
	circ   *originCirc
	remote string // dialed .onion (client side only)
	local  string // serving .onion (server side only)
	queue  [][]byte
	onMsg  func([]byte)
	closed bool
	// inflight holds reassembled messages whose delivery event has not
	// fired yet, oldest first from inHead; deliverNext is c.deliver,
	// bound once so scheduling a delivery allocates nothing.
	inflight    [][]byte
	inHead      int
	deliverNext func()
}

// newConn binds a connection to a rendezvous circuit.
func newConn(oc *originCirc) *Conn {
	c := &Conn{op: oc.op, circ: oc}
	c.deliverNext = c.deliver
	oc.conn = c
	return c
}

// RemoteOnion reports the dialed address ("" on the server side — the
// mutual-anonymity property the paper builds on).
func (c *Conn) RemoteOnion() string { return c.remote }

// LocalOnion reports the serving address ("" on the client side).
func (c *Conn) LocalOnion() string { return c.local }

// Closed reports whether the connection is closed.
func (c *Conn) Closed() bool { return c.closed }

// Send transmits msg, fragmenting it into fixed-size cells.
func (c *Conn) Send(msg []byte) error {
	if c.closed {
		return ErrConnClosed
	}
	for off := 0; ; off += MaxCellPayload {
		end := off + MaxCellPayload
		var flags byte
		if end < len(msg) {
			flags = flagMore
		} else {
			end = len(msg)
		}
		if err := c.op.send(c.circ, CmdData, flags, msg[off:end]); err != nil {
			return err
		}
		if flags&flagMore == 0 {
			return nil
		}
	}
}

// Recv pops the next queued message; ok is false when nothing is
// queued. Connections with a handler installed never queue.
func (c *Conn) Recv() ([]byte, bool) {
	if len(c.queue) == 0 {
		return nil, false
	}
	msg := c.queue[0]
	c.queue = c.queue[1:]
	return msg, true
}

// SetHandler installs fn as the synchronous delivery callback, first
// draining any queued messages into it. A message passed to fn is valid
// only until fn returns: its buffer is then recycled for a later
// message, so a handler that keeps bytes must copy them. Messages
// returned by Recv stay valid.
func (c *Conn) SetHandler(fn func([]byte)) {
	for _, m := range c.queue {
		fn(m)
	}
	c.queue = nil
	c.onMsg = fn
}

// Close tears down the connection end to end.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.op.teardown(c.circ)
}

// deliver hands the oldest in-flight message to the handler, or queues
// it for Recv, and recycles its buffer once the handler returns.
func (c *Conn) deliver() {
	msg := c.inflight[c.inHead]
	c.inflight[c.inHead] = nil
	if c.inHead++; c.inHead == len(c.inflight) {
		c.inflight, c.inHead = c.inflight[:0], 0
	}
	switch {
	case c.closed:
		c.op.net.putMsg(msg)
	case c.onMsg != nil:
		c.onMsg(msg)
		c.op.net.putMsg(msg)
	default:
		c.queue = append(c.queue, msg)
	}
}

func (c *Conn) markClosed() { c.closed = true }

// HiddenService is the server side of a hosted .onion service.
type HiddenService struct {
	op          *OnionProxy
	identity    *Identity
	handler     func(*Conn)
	cookie      []byte
	introPoints []Fingerprint
	introCircs  []*originCirc
	stopped     bool
	lastPublish time.Time
	lastPeriod  uint64
	// lastDirs is the concatenated responsible-HSDir set (all replicas,
	// ring order) at the last publish; maybeRepublish re-publishes when
	// the current consensus resolves to a different set, which is how a
	// service heals from directory loss (HSDir outage waves) without any
	// extra randomness.
	lastDirs []Fingerprint
	// introPayload is the constant ESTABLISH_INTRO cell body
	// (pub || sig over the intro binding), signed once at Host time;
	// Ed25519 is deterministic so re-signing per repair tick produced
	// these exact bytes anyway.
	introPayload []byte
}

// Host publishes a hidden service for identity on this proxy. handler
// is invoked synchronously for each established inbound connection.
func (p *OnionProxy) Host(identity *Identity, handler func(*Conn)) (*HiddenService, error) {
	sid := identity.ServiceID()
	if _, dup := p.services[sid]; dup {
		return nil, fmt.Errorf("%w: %s", ErrServiceExists, sid)
	}
	c := p.net.Consensus()
	if c == nil {
		return nil, ErrNoConsensus
	}
	hs := &HiddenService{op: p, identity: identity, handler: handler}

	// Intro points come from the consensus, which may list relays that
	// died since publication; resample past the corpses instead of
	// establishing a circuit to one (or hard-failing the host call).
	var ips []Fingerprint
	ipExclude := map[Fingerprint]struct{}{}
	for len(ips) < p.net.cfg.IntroPoints {
		need := p.net.cfg.IntroPoints - len(ips)
		picked := c.PickRelays(p.net.rng, need, ipExclude)
		for _, fp := range picked {
			ipExclude[fp] = struct{}{}
			if p.net.Relay(fp) != nil {
				ips = append(ips, fp)
			}
		}
		if len(picked) < need {
			break // consensus exhausted; host with what we have
		}
	}
	if len(ips) == 0 {
		return nil, ErrNotEnoughRelays
	}
	// The ESTABLISH_INTRO body is cached on the identity (Ed25519 is
	// deterministic), so a pool-warmed identity hosts without paying the
	// signature here.
	payload := identity.IntroPayload()
	hs.introPayload = payload
	for _, ip := range ips {
		path, err := p.pickPath(ip)
		if err != nil {
			return nil, fmt.Errorf("tor: intro circuit: %w", err)
		}
		oc := p.buildCircuit(path, purposeHSIntro)
		oc.hs = hs
		if err := p.send(oc, CmdEstablishIntro, 0, payload); err != nil {
			return nil, err
		}
		hs.introPoints = append(hs.introPoints, ip)
		hs.introCircs = append(hs.introCircs, oc)
	}
	if err := hs.publishDescriptors(); err != nil {
		return nil, err
	}
	p.services[sid] = hs
	// Batched: every service hosted at the same instant shares one
	// republish/repair wheel event per consensus interval.
	p.net.sched.EveryBatched(p.net.cfg.ConsensusInterval, hs, 0)
	return hs, nil
}

// BatchTick runs the service's per-consensus republish/repair duty
// (sim.Ticker); a stopped service unsubscribes.
func (hs *HiddenService) BatchTick(uint8) bool {
	if hs.stopped {
		return false
	}
	hs.maybeRepublish()
	return true
}

// Onion reports the service hostname.
func (hs *HiddenService) Onion() string { return hs.identity.Onion() }

// IntroPoints returns the service's current introduction relays.
func (hs *HiddenService) IntroPoints() []Fingerprint {
	return append([]Fingerprint(nil), hs.introPoints...)
}

// Stop withdraws the service: introduction circuits are torn down so
// new dials fail immediately; established connections survive, as in
// Tor.
func (hs *HiddenService) Stop() {
	if hs.stopped {
		return
	}
	hs.stopped = true
	for _, oc := range hs.introCircs {
		hs.op.teardown(oc)
	}
	delete(hs.op.services, hs.identity.ServiceID())
}

// publishDescriptors computes per-replica descriptor ids and uploads to
// every responsible HSDir.
func (hs *HiddenService) publishDescriptors() error {
	now := hs.op.net.Now()
	c := hs.op.net.Consensus()
	if c == nil {
		return ErrNoConsensus
	}
	sid := hs.identity.ServiceID()
	stored := 0
	// One signed document per publication: the replicas differ only in
	// the ring position they are uploaded to (and the Replica location
	// tag), so the service signs once and primes the network's verify
	// memo — directories and clients then check bytes that are valid by
	// construction without re-running the scalar multiplications.
	doc := Descriptor{
		Pub:         hs.identity.Pub,
		IntroPoints: hs.IntroPoints(),
		TimePeriod:  TimePeriod(now, sid),
		PublishedAt: now,
	}
	doc.Sign(hs.identity.Priv)
	hs.op.net.noteSignedDescriptor(hs.identity.Priv, &doc)
	for r := 0; r < NumReplicas; r++ {
		descID := ComputeDescriptorID(sid, hs.cookie, r, now)
		d := new(Descriptor)
		*d = doc
		d.Replica = r
		for _, fp := range c.ResponsibleHSDirs(descID) {
			relay := hs.op.net.Relay(fp)
			if relay == nil {
				continue
			}
			// The replica copy is ours and immutable from here on; the
			// responsible directories share it without re-cloning.
			if err := relay.storeDescriptorOwned(descID, d); err == nil {
				stored++
			}
		}
	}
	if stored == 0 {
		return fmt.Errorf("tor: could not store any descriptor for %s", sid)
	}
	hs.lastPublish = now
	hs.lastPeriod = TimePeriod(now, sid)
	hs.lastDirs = hs.responsibleDirs(c, now)
	return nil
}

// responsibleDirs resolves the service's full responsible-HSDir set
// (every replica, ring order) against a consensus. A pure function of
// (consensus, service, time) — no randomness — so comparing snapshots
// across consensuses is determinism-safe.
func (hs *HiddenService) responsibleDirs(c *Consensus, now time.Time) []Fingerprint {
	sid := hs.identity.ServiceID()
	out := make([]Fingerprint, 0, NumReplicas*HSDirsPerReplica)
	for r := 0; r < NumReplicas; r++ {
		descID := ComputeDescriptorID(sid, hs.cookie, r, now)
		out = append(out, c.ResponsibleHSDirs(descID)...)
	}
	return out
}

func equalFingerprints(a, b []Fingerprint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maybeRepublish repairs introduction circuits lost to relay churn and
// refreshes descriptors when the time-period rolled, the previous
// upload is approaching its TTL, or the responsible-HSDir set moved
// under the descriptor — directories died (or joined) and the copies
// uploaded last time are no longer where clients will look. The last
// case is what lets a hidden service survive an HSDir outage wave: the
// next consensus drops the dead directories, the ring positions
// re-resolve to surviving relays, and the service re-uploads there.
func (hs *HiddenService) maybeRepublish() {
	now := hs.op.net.Now()
	sid := hs.identity.ServiceID()
	introChanged := hs.repairIntroCircuits()
	// A responsible-set change within the publication's own time period
	// means directories died or joined under the descriptor — the repair
	// case. Across period boundaries the set moves by design (the
	// descriptor ID rotates) and the period condition below already
	// republishes, so that is not counted as a repair.
	dirsMoved := false
	if c := hs.op.net.Consensus(); c != nil && hs.lastDirs != nil && TimePeriod(now, sid) == hs.lastPeriod {
		dirsMoved = !equalFingerprints(hs.responsibleDirs(c, now), hs.lastDirs)
	}
	if dirsMoved {
		hs.op.net.stats.PublishRepairs++
	}
	if introChanged || dirsMoved || TimePeriod(now, sid) != hs.lastPeriod ||
		now.Sub(hs.lastPublish) > hs.op.net.cfg.DescriptorTTL/2 {
		// Best effort, as in Tor: a failed republish retries next tick.
		_ = hs.publishDescriptors()
	}
}

// repairIntroCircuits replaces introduction circuits that died (the
// intro relay was removed or the circuit was destroyed), reporting
// whether the intro-point set changed.
func (hs *HiddenService) repairIntroCircuits() bool {
	changed := false
	exclude := map[Fingerprint]struct{}{}
	for _, ip := range hs.introPoints {
		exclude[ip] = struct{}{}
	}
	payload := hs.introPayload
	for i := 0; i < len(hs.introCircs); i++ {
		if !hs.introCircs[i].closed {
			continue
		}
		changed = true
		c := hs.op.net.Consensus()
		if c == nil {
			continue
		}
		var ip Fingerprint
		for {
			picked := c.PickRelays(hs.op.net.rng, 1, exclude)
			if len(picked) == 0 {
				break
			}
			exclude[picked[0]] = struct{}{}
			if hs.op.net.Relay(picked[0]) != nil {
				ip = picked[0]
				break
			}
		}
		if ip == (Fingerprint{}) {
			continue
		}
		path, err := hs.op.pickPath(ip)
		if err != nil {
			continue
		}
		oc := hs.op.buildCircuit(path, purposeHSIntro)
		oc.hs = hs
		if err := hs.op.send(oc, CmdEstablishIntro, 0, payload); err != nil {
			continue
		}
		hs.introPoints[i] = ip
		hs.introCircs[i] = oc
	}
	return changed
}

// onIntroduce2 completes the service side of a rendezvous: build a
// circuit to the client's rendezvous point and join.
func (hs *HiddenService) onIntroduce2(p []byte) {
	if hs.stopped || len(p) != 20+cookieSize {
		return
	}
	var rp Fingerprint
	copy(rp[:], p[:20])
	cookie := p[20:]
	path, err := hs.op.pickPath(rp)
	if err != nil {
		return
	}
	oc := hs.op.buildCircuit(path, purposeServiceRend)
	conn := newConn(oc)
	conn.local = hs.Onion()
	if err := hs.op.send(oc, CmdRendezvous1, 0, cookie); err != nil {
		return
	}
	if oc.failed {
		return // rendezvous point refused (stale cookie)
	}
	if hs.handler != nil {
		hs.handler(conn)
	}
}

// Dial connects to a hidden service by onion address, running the full
// descriptor-fetch / rendezvous / introduction protocol of Figure 1.
// Every failed dial is counted in NetworkStats.DialFailures; DialAsync
// layers the retry policy on top.
func (p *OnionProxy) Dial(onion string) (*Conn, error) {
	conn, err := p.dialOnce(onion)
	if err != nil {
		p.net.stats.DialFailures++
	}
	return conn, err
}

func (p *OnionProxy) dialOnce(onion string) (*Conn, error) {
	sid, err := ParseOnion(onion)
	if err != nil {
		return nil, err
	}
	c := p.net.Consensus()
	if c == nil {
		return nil, ErrNoConsensus
	}
	desc, err := p.fetchDescriptor(c, sid)
	if err != nil {
		return nil, err
	}

	// Establish the rendezvous point.
	cookie := p.net.rng.Bytes(cookieSize)
	rpPath, err := p.pickPath(Fingerprint{})
	if err != nil {
		return nil, err
	}
	rendCirc := p.buildCircuit(rpPath, purposeClientRend)
	conn := newConn(rendCirc)
	conn.remote = onion
	if err := p.send(rendCirc, CmdEstablishRendezvous, 0, cookie); err != nil {
		return nil, err
	}
	rpFP := rpPath[len(rpPath)-1].Fingerprint()

	// Introduce ourselves via one of the service's intro points.
	intro := sim.Choice(p.net.rng, desc.IntroPoints)
	introPath, err := p.pickPath(intro)
	if err != nil {
		p.teardown(rendCirc)
		return nil, err
	}
	introCirc := p.buildCircuit(introPath, purposeClientIntro)
	payload := make([]byte, 0, 10+20+cookieSize)
	payload = append(payload, sid[:]...)
	payload = append(payload, rpFP[:]...)
	payload = append(payload, cookie...)
	if err := p.send(introCirc, CmdIntroduce1, 0, payload); err != nil {
		p.teardown(rendCirc)
		return nil, err
	}
	introFailed := introCirc.failed
	p.teardown(introCirc) // one-shot, as in Tor

	if introFailed {
		p.teardown(rendCirc)
		p.forgetDescriptor(sid)
		return nil, fmt.Errorf("%w: service %s not introducing", ErrIntroFailed, sid)
	}
	if !rendCirc.ready {
		p.teardown(rendCirc)
		p.forgetDescriptor(sid)
		return nil, fmt.Errorf("%w: no RENDEZVOUS2 for %s", ErrDialFailed, sid)
	}
	return conn, nil
}

// fetchDescriptor resolves a service descriptor, consulting the proxy's
// verified-descriptor cache before hitting HSDirs. The Ed25519 signature
// check dominated the dial path (~31% of campaign CPU went to
// re-verifying the same descriptor on every dial), so each descriptor is
// verified once when first fetched; later dials reuse it after a cheap
// coherence probe (cachedDescriptorValid) proving a fresh fetch would
// return byte-identical bytes. Entries invalidate on descriptor-id
// rollover (TimePeriod change), republish (the stored signature no
// longer matches), directory churn, and dial failure.
func (p *OnionProxy) fetchDescriptor(c *Consensus, sid ServiceID) (*Descriptor, error) {
	now := p.net.Now()
	if e, ok := p.descCache[sid]; ok {
		if p.cachedDescriptorValid(c, sid, e, now) {
			return e.desc, nil
		}
		delete(p.descCache, sid)
	}
	for i := 0; i < NumReplicas; i++ {
		// replicaOffset rotates the fetch order after dial failures so a
		// retry consults the other replica's directories first; it stays 0
		// (replica order 0, 1, ...) until a failure bumps it.
		r := (i + p.replicaOffset) % NumReplicas
		descID := ComputeDescriptorID(sid, nil, r, now)
		for _, fp := range c.ResponsibleHSDirs(descID) {
			relay := p.net.Relay(fp)
			if relay == nil {
				continue
			}
			d := relay.FetchDescriptor(descID)
			if d == nil {
				continue
			}
			if err := p.net.verifyDescriptor(sid, d); err != nil {
				continue
			}
			if len(d.IntroPoints) == 0 {
				continue
			}
			p.descCache[sid] = &descCacheEntry{desc: d, period: TimePeriod(now, sid)}
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoDescriptor, sid)
}

// cachedDescriptorValid reports whether dialing from the cached entry is
// indistinguishable from a fresh fetch: the descriptor-id ring position
// still resolves to the same time period and at least one responsible
// HSDir would still serve the byte-identical descriptor. Because HSDir
// stores only change when a service republishes — which re-signs with a
// fresh PublishedAt — signature equality at any responsible directory
// proves a fresh fetch would return exactly the cached bytes.
func (p *OnionProxy) cachedDescriptorValid(c *Consensus, sid ServiceID, e *descCacheEntry, now time.Time) bool {
	if TimePeriod(now, sid) != e.period {
		return false // descriptor ids rolled over
	}
	descID := ComputeDescriptorID(sid, nil, e.desc.Replica, now)
	for _, fp := range c.ResponsibleHSDirs(descID) {
		if relay := p.net.Relay(fp); relay != nil && relay.wouldServe(descID, e.desc) {
			return true
		}
	}
	return false
}

// forgetDescriptor drops a cached descriptor after a dial failure so the
// next attempt re-fetches and re-verifies from the HSDirs.
func (p *OnionProxy) forgetDescriptor(sid ServiceID) {
	delete(p.descCache, sid)
}
