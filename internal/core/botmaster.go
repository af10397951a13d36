package core

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/tor"
)

// BotRecord is the botmaster's registry entry for one bot: the shared
// key K_B (everything else — including the bot's address at any future
// time — derives from it) and rally metadata.
type BotRecord struct {
	KB           []byte
	FirstOnion   string
	RegisteredAt time.Time

	seal *botcrypto.SealKey // lazily cached K_B sealing session

	// curOnion memoizes the derived address for curPeriod; the
	// derivation is deterministic per (K_B, period).
	curOnion  string
	curPeriod uint64

	id string // lazily cached ID (hash of K_B)
}

// sealKey returns the cached sealing session for the bot's K_B.
func (r *BotRecord) sealKey() *botcrypto.SealKey {
	if r.seal == nil {
		r.seal = botcrypto.NewSealKey(r.KB)
	}
	return r.seal
}

// ID is a stable identifier for the record (hash of K_B), computed
// once — rally replies compare IDs per candidate draw.
func (r *BotRecord) ID() string {
	if r.id == "" {
		r.id = recordID(r.KB)
	}
	return r.id
}

func recordID(kb []byte) string {
	sum := sha256.Sum256(kb)
	return hex.EncodeToString(sum[:8])
}

// recordChunkShift sizes record-arena chunks: 1024 records each.
const recordChunkShift = 10

// recordArena stores BotRecords by value in fixed-capacity chunks.
// Records never leave the registry, so the arena only appends; a chunk
// is allocated full-capacity up front and never reallocated, which
// makes &chunk[i] stable for the life of the botmaster — the registry
// map, rally replies, and callers of Records all hold pointers into
// it. Against the former one-pointer-per-record list this packs
// records contiguously (a hotlist index draw is one predictable
// indexed load) and drops a million heap objects to ~a thousand chunk
// allocations at paper scale.
type recordArena struct {
	chunks [][]BotRecord
	n      int
}

// add appends rec and returns its stable address.
func (a *recordArena) add(rec BotRecord) *BotRecord {
	if a.n>>recordChunkShift == len(a.chunks) {
		a.chunks = append(a.chunks, make([]BotRecord, 0, 1<<recordChunkShift))
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, rec)
	a.n++
	return &(*c)[len(*c)-1]
}

// at returns the stable address of record i (registration order).
func (a *recordArena) at(i int) *BotRecord {
	return &a.chunks[i>>recordChunkShift][i&(1<<recordChunkShift-1)]
}

// len reports how many records the arena holds.
func (a *recordArena) len() int { return a.n }

// Botmaster is the C&C operator: it holds the signing and encryption
// keys whose public halves are hardcoded into every bot, hosts the
// rally hidden service, and can reach any registered bot at any time
// through the shared key schedule — without ever revealing itself.
type Botmaster struct {
	net   *tor.Network
	proxy *tor.OnionProxy
	drbg  *botcrypto.DRBG

	signPub  ed25519.PublicKey
	signPriv ed25519.PrivateKey
	enc      *botcrypto.EncryptionKeyPair

	identity *tor.Identity
	hs       *tor.HiddenService
	netKey   []byte
	netSeal  *botcrypto.SealKey

	registry map[string]*BotRecord // keyed by BotRecord.ID()
	// records holds the same records by value in registration order
	// (see recordArena). The registry never forgets, so the arena only
	// appends — an O(1)-indexable candidate pool for rally replies that
	// would otherwise sort and shuffle the whole registry per report.
	records recordArena
	// rallyOpens maps sealed-rally-report digests to the K_B inside,
	// primed by the identity pool for reports it pre-sealed (sealing and
	// opening are inverses, so the memo is exact). A hit skips the
	// X25519 exchange; unknown or forged blobs miss and take the real
	// path. Entries are consumed on hit.
	rallyOpens map[[sha256.Size]byte][]byte

	// HotlistSize, when positive, makes the C&C answer each rally
	// report with that many current addresses of other registered bots.
	// Registration requires sealing K_B to the master's key, which the
	// paper's legally-constrained authorities cannot do — so the
	// hotlist is clone-free by construction. SuperOnion replacements
	// (Section VII-B) rely on this to re-bootstrap out of containment.
	HotlistSize int
}

// NewBotmaster creates the C&C with deterministic keys from seed and
// hosts its rally service.
func NewBotmaster(net *tor.Network, seed []byte) (*Botmaster, error) {
	drbg := botcrypto.NewDRBG(append([]byte("botmaster:"), seed...))
	signPub, signPriv, err := ed25519.GenerateKey(drbg)
	if err != nil {
		return nil, fmt.Errorf("core: master sign keys: %w", err)
	}
	enc, err := botcrypto.NewEncryptionKeyPair(drbg)
	if err != nil {
		return nil, fmt.Errorf("core: master enc keys: %w", err)
	}
	m := &Botmaster{
		net:        net,
		proxy:      tor.NewProxy(net),
		drbg:       drbg,
		signPub:    signPub,
		signPriv:   signPriv,
		enc:        enc,
		netKey:     drbg.Bytes(32),
		registry:   make(map[string]*BotRecord),
		rallyOpens: make(map[[sha256.Size]byte][]byte),
	}
	m.netSeal = botcrypto.NewSealKey(m.netKey)
	var idSeed [32]byte
	copy(idSeed[:], drbg.Bytes(32))
	m.identity = tor.IdentityFromSeed(idSeed)
	hs, err := m.proxy.Host(m.identity, m.onInboundConn)
	if err != nil {
		return nil, fmt.Errorf("core: host C&C service: %w", err)
	}
	m.hs = hs
	return m, nil
}

// SetRetryPolicy installs a dial retry policy on the master's proxy,
// so Reach survives transient infrastructure faults the same way bot
// dials do. BotNet wires the BotConfig policy through here.
func (m *Botmaster) SetRetryPolicy(rp tor.RetryPolicy) { m.proxy.Retry = rp }

// SignPub is the public key hardcoded into bots for command
// verification and the address schedule.
func (m *Botmaster) SignPub() ed25519.PublicKey { return m.signPub }

// SignPriv exposes the master signing key (used by rental issuance).
func (m *Botmaster) SignPriv() ed25519.PrivateKey { return m.signPriv }

// EncPub is the public encryption key bots seal K_B to at rally.
func (m *Botmaster) EncPub() *botcrypto.EncryptionKeyPair {
	return &botcrypto.EncryptionKeyPair{Pub: m.enc.Pub}
}

// NetKey is the network-wide sealing key baked into bots at infection.
func (m *Botmaster) NetKey() []byte { return append([]byte(nil), m.netKey...) }

// Onion is the hardcoded rally address.
func (m *Botmaster) Onion() string { return m.identity.Onion() }

// Records lists registered bots, sorted by rally order then ID.
func (m *Botmaster) Records() []*BotRecord {
	out := make([]*BotRecord, 0, m.records.len())
	for i := 0; i < m.records.len(); i++ {
		out = append(out, m.records.at(i))
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].RegisteredAt.Equal(out[j].RegisteredAt) {
			return out[i].RegisteredAt.Before(out[j].RegisteredAt)
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// NumRegistered reports registry size.
func (m *Botmaster) NumRegistered() int { return len(m.registry) }

func (m *Botmaster) onInboundConn(conn *tor.Conn) {
	conn.SetHandler(func(msg []byte) { m.onMessage(conn, msg) })
}

func (m *Botmaster) onMessage(conn *tor.Conn, raw []byte) {
	plain, err := m.netSeal.OpenView(raw)
	if err != nil {
		return
	}
	env, err := DecodeEnvelope(plain)
	if err != nil {
		return
	}
	if env.Type != MsgReport {
		return
	}
	rep, err := DecodeReport(env.Payload)
	if err != nil {
		return
	}
	kb, err := m.openRallyReport(rep.SealedKB)
	if err != nil {
		return // forged or corrupted rally report
	}
	// The ID is computed before any record exists, so a duplicate rally
	// report never allocates: the registered record answers the reply
	// (the hotlist only consults the reporter's ID, which matches).
	id := recordID(kb)
	rec, dup := m.registry[id]
	if !dup {
		rec = m.records.add(BotRecord{KB: kb, FirstOnion: rep.Onion, RegisteredAt: m.net.Now(), id: id})
		m.registry[id] = rec
	}
	m.replyHotlist(conn, rec)
}

// openRallyReport recovers K_B from a rally report, consulting the
// pool-primed memo before paying the X25519 exchange.
func (m *Botmaster) openRallyReport(sealed []byte) ([]byte, error) {
	if len(m.rallyOpens) > 0 {
		key := sha256.Sum256(sealed)
		if kb, ok := m.rallyOpens[key]; ok {
			delete(m.rallyOpens, key)
			return kb, nil
		}
	}
	return botcrypto.OpenWithPrivate(m.enc.Priv, sealed)
}

// PrimeRallyOpen records the plaintext of a rally report that was
// sealed in this process (by the identity pool), so its registration
// will skip the X25519 exchange. The memo is exact — SealToPublic and
// OpenWithPrivate are inverses — and one-shot per blob.
func (m *Botmaster) PrimeRallyOpen(sealed, kb []byte) {
	m.rallyOpens[sha256.Sum256(sealed)] = append([]byte(nil), kb...)
}

// replyHotlist answers a rally with current addresses of other
// registered bots (see HotlistSize). The candidate draw is O(HotlistSize)
// expected — distinct index draws with duplicate rejection over the
// append-only record list — instead of the former sort-and-shuffle of
// the entire registry, which made every rally reply linear in the
// population and dominated protocol-scale churn joins.
func (m *Botmaster) replyHotlist(conn *tor.Conn, reporter *BotRecord) {
	if m.HotlistSize <= 0 {
		return
	}
	rid := reporter.ID()
	avail := m.records.len()
	if _, registered := m.registry[rid]; registered {
		avail--
	}
	if avail <= 0 {
		return
	}
	var pool []string
	if m.HotlistSize >= avail {
		// Small registry: every other bot's current address, in
		// registration order.
		pool = make([]string, 0, avail)
		for i := 0; i < m.records.len(); i++ {
			r := m.records.at(i)
			if r.ID() == rid {
				continue
			}
			pool = append(pool, m.CurrentOnionOf(r))
		}
	} else {
		rng := m.net.RNG()
		pool = make([]string, 0, m.HotlistSize)
		seen := make(map[int]struct{}, m.HotlistSize+1)
		for len(pool) < m.HotlistSize {
			i := rng.Intn(m.records.len())
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			r := m.records.at(i)
			if r.ID() == rid {
				continue
			}
			pool = append(pool, m.CurrentOnionOf(r))
		}
	}
	up := &NoNUpdate{Onion: "", Degree: 0, Neighbors: pool}
	var env Envelope
	env.Type = MsgNoNUpdate
	copy(env.MsgID[:], m.drbg.Bytes(16))
	env.Payload = up.Encode()
	sealed, err := m.netSeal.Seal(env.Encode(), m.drbg)
	if err != nil {
		return
	}
	_ = conn.Send(sealed)
}

// NewCommand builds a fresh master-signed command.
func (m *Botmaster) NewCommand(name string, args []byte) *Command {
	cmd := &Command{Name: name, Args: args, IssuedAt: m.net.Now()}
	copy(cmd.Nonce[:], m.drbg.Bytes(16))
	cmd.SignMaster(m.signPriv)
	return cmd
}

// CurrentOnionOf derives where a registered bot is reachable right now,
// using only K_B and the clock — the Section IV-D property that
// survives every rotation.
func (m *Botmaster) CurrentOnionOf(rec *BotRecord) string {
	ip := botcrypto.PeriodIndex(m.net.Now())
	if rec.curOnion == "" || rec.curPeriod != ip {
		rec.curOnion = botcrypto.OnionForPeriod(m.signPub, rec.KB, ip)
		rec.curPeriod = ip
	}
	return rec.curOnion
}

// Reach dials a bot directly at its current derived address and
// delivers a command sealed to its K_B.
func (m *Botmaster) Reach(rec *BotRecord, cmd *Command) error {
	onion := m.CurrentOnionOf(rec)
	conn, err := m.proxy.Dial(onion)
	if err != nil {
		return fmt.Errorf("core: reach %s: %w", rec.ID(), err)
	}
	sealed, err := rec.sealKey().Seal(cmd.Encode(), m.drbg)
	if err != nil {
		return err
	}
	return conn.Send(sealed)
}

// Broadcast pushes a command into the network through the given entry
// bots; flooding does the rest.
func (m *Botmaster) Broadcast(viaOnions []string, cmd *Command, ttl uint8) error {
	var env Envelope
	env.Type = MsgBroadcast
	copy(env.MsgID[:], m.drbg.Bytes(16))
	env.TTL = ttl
	env.Payload = cmd.Encode()
	delivered := 0
	for _, onion := range viaOnions {
		conn, err := m.proxy.Dial(onion)
		if err != nil {
			continue
		}
		sealed, err := m.netSeal.Seal(env.Encode(), m.drbg)
		if err != nil {
			return err
		}
		if conn.Send(sealed) == nil {
			delivered++
		}
	}
	if delivered == 0 {
		return fmt.Errorf("core: broadcast reached no entry bot")
	}
	return nil
}

// FloodDirected pushes a command for one bot into the network through
// an arbitrary entry bot. Relays cannot open the inner seal and forward
// it blindly; only the target's K_B opens it.
func (m *Botmaster) FloodDirected(viaOnion string, rec *BotRecord, cmd *Command, ttl uint8) error {
	inner, err := rec.sealKey().SealSized(cmd.Encode(), DirectedSealSize, m.drbg)
	if err != nil {
		return err
	}
	var env Envelope
	env.Type = MsgDirected
	copy(env.MsgID[:], m.drbg.Bytes(16))
	env.TTL = ttl
	env.Payload = inner
	conn, err := m.proxy.Dial(viaOnion)
	if err != nil {
		return fmt.Errorf("core: flood-directed via %s: %w", viaOnion, err)
	}
	sealed, err := m.netSeal.Seal(env.Encode(), m.drbg)
	if err != nil {
		return err
	}
	return conn.Send(sealed)
}
