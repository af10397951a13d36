package core

import (
	"fmt"
	"math"
	"time"

	"onionbots/internal/graph"
	"onionbots/internal/sim"
	"onionbots/internal/tor"
)

// BootstrapStrategy produces the candidate peer list a fresh infection
// rallies with (Section IV-B).
type BootstrapStrategy interface {
	// Candidates returns bootstrap addresses for a bot infected via
	// infector (nil for the very first bot).
	Candidates(bn *BotNet, infector *Bot) []string
}

// HardcodedList is the paper's recommended scheme: the infecting bot
// hands over its own address plus each of its peers independently with
// probability P.
type HardcodedList struct {
	P float64
}

var _ BootstrapStrategy = HardcodedList{}

// Candidates implements BootstrapStrategy.
func (h HardcodedList) Candidates(bn *BotNet, infector *Bot) []string {
	if infector == nil {
		return nil
	}
	out := []string{infector.Onion()}
	for _, p := range infector.PeerOnions() {
		if bn.RNG.Bool(h.P) {
			out = append(out, p)
		}
	}
	return out
}

// Hotlist is the webcache variant: fresh bots query designated cache
// bots. Protocol-wise a cache is just a bot — the PEER_ACK it answers
// with carries its neighbor list whether or not it accepts, which is
// exactly the hotlist lookup.
type Hotlist struct {
	Caches []string
}

var _ BootstrapStrategy = Hotlist{}

// Candidates implements BootstrapStrategy.
func (h Hotlist) Candidates(*BotNet, *Bot) []string {
	return append([]string(nil), h.Caches...)
}

// OutOfBand models a fixed peer list delivered through another channel
// (BitTorrent DHT, social networks, ...).
type OutOfBand struct {
	Addrs []string
}

var _ BootstrapStrategy = OutOfBand{}

// Candidates implements BootstrapStrategy.
func (o OutOfBand) Candidates(*BotNet, *Bot) []string {
	return append([]string(nil), o.Addrs...)
}

// RandomProbingExpectedDials quantifies Section IV-B's infeasibility
// argument: the expected number of random .onion dials before hitting
// any of networkSize bots in the 32^16 address space.
func RandomProbingExpectedDials(networkSize int) float64 {
	if networkSize <= 0 {
		return math.Inf(1)
	}
	return math.Pow(32, 16) / float64(networkSize)
}

// BotNet is the simulation orchestrator: one Tor network, one
// botmaster, and the growing bot population.
type BotNet struct {
	Sched  *sim.Scheduler
	RNG    *sim.RNG
	Net    *tor.Network
	Master *Botmaster

	cfg     BotConfig
	bots    []*Bot
	nextBot int
	seed    uint64
	// alive is the unordered swap-remove index of living bots
	// (maintained via Bot.Takedown through Bot.owner), giving churn
	// processes O(1) population counts and uniform victim picks without
	// scanning or copying the full roster per event. It holds int32
	// roster indices in struct-of-arrays form — pointer-free, so a
	// million-bot population adds two flat arrays, not a pointer-keyed
	// map the GC must walk. AliveBots still reports in infection order
	// off bn.bots.
	alive aliveIndex
	// pool pre-derives bot key material in batches (on by default; see
	// SetIdentityPool), making infections O(handshake) instead of
	// O(keygen) without changing a single output byte.
	pool *IdentityPool
	// SettleTime is how long Grow runs the clock after each infection
	// so peering handshakes complete. Default 2s of virtual time.
	SettleTime time.Duration
}

// NewBotNet bootstraps a Tor network of numRelays relays and a
// botmaster on it.
func NewBotNet(seed uint64, numRelays int, cfg BotConfig) (*BotNet, error) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	net := tor.NewNetwork(sched, rng, tor.Config{})
	if err := net.Bootstrap(numRelays); err != nil {
		return nil, err
	}
	master, err := NewBotmaster(net, []byte(fmt.Sprintf("seed-%d", seed)))
	if err != nil {
		return nil, err
	}
	if cfg.Retry.Enabled() {
		master.SetRetryPolicy(cfg.Retry)
	}
	return &BotNet{
		Sched:      sched,
		RNG:        rng,
		Net:        net,
		Master:     master,
		cfg:        cfg,
		seed:       seed,
		SettleTime: 2 * time.Second,
		pool:       newIdentityPool(defaultPoolBatch),
	}, nil
}

// adopt registers a freshly created bot in the roster and the alive
// index. The bot keeps its roster index and owner inline, so takedown
// is two array writes against the index — no per-bot closure.
func (bn *BotNet) adopt(b *Bot) {
	idx := int32(len(bn.bots))
	bn.bots = append(bn.bots, b)
	b.owner = bn
	b.rosterIdx = idx
	bn.alive.add(idx)
}

// Config returns the bot configuration used for infections.
func (bn *BotNet) Config() BotConfig { return bn.cfg.withDefaults() }

// Run advances virtual time.
func (bn *BotNet) Run(d time.Duration) { bn.Sched.RunFor(d) }

// Bots returns every bot ever created (including taken-down ones).
func (bn *BotNet) Bots() []*Bot { return append([]*Bot(nil), bn.bots...) }

// AliveBots returns the currently alive bots.
func (bn *BotNet) AliveBots() []*Bot {
	out := make([]*Bot, 0, len(bn.bots))
	for _, b := range bn.bots {
		if b.Alive() {
			out = append(out, b)
		}
	}
	return out
}

// AliveCount reports how many bots are currently alive — O(1) off the
// alive index; churn processes poll this every event.
func (bn *BotNet) AliveCount() int { return bn.alive.count() }

// RandomAliveBot returns a uniformly random alive bot drawn with rng
// (bn.RNG when nil), or nil when none is left. O(1) off the alive
// index; the draw is over the index's internal (deterministic) order,
// so it suits churn substreams that only need uniformity. The index
// maintains exactly the swap-remove order of the old pointer slice, so
// a given rng state draws the same bot as before the SoA layout.
func (bn *BotNet) RandomAliveBot(rng *sim.RNG) *Bot {
	if bn.alive.count() == 0 {
		return nil
	}
	if rng == nil {
		rng = bn.RNG
	}
	return bn.bots[bn.alive.ids[rng.Intn(len(bn.alive.ids))]]
}

// InfectOne creates a bot and rallies it with the given bootstrap
// candidates. The caller (or Grow) must pump the clock for the peering
// handshakes to finish. With the identity pool enabled (the default)
// the bot's key material comes pre-derived from the warmup batch;
// either way the bot is a pure function of (botnet seed, infection
// index).
func (bn *BotNet) InfectOne(bootstrap []string) (*Bot, error) {
	bn.nextBot++
	var b *Bot
	var err error
	if bn.pool != nil {
		if mat := bn.takeMaterial(bn.nextBot); mat != nil {
			b, err = newBotWithMaterial(tor.NewProxy(bn.Net), bn.Net, bn.cfg,
				bn.Master.SignPub(), bn.Master.enc.Pub, bn.Master.Onion(), mat)
			if b != nil {
				b.ownProxy = true
			}
		}
	}
	if b == nil && err == nil {
		seed := []byte(fmt.Sprintf("bot-%d-%d", bn.seed, bn.nextBot))
		b, err = NewBot(bn.Net, bn.cfg, bn.Master.SignPub(), bn.Master.EncPub().Pub,
			bn.Master.NetKey(), bn.Master.Onion(), seed)
	}
	if err != nil {
		return nil, err
	}
	bn.adopt(b)
	if err := b.Rally(bootstrap); err != nil {
		return nil, err
	}
	return b, nil
}

// InfectFrom infects one bot bootstrapped from a random alive infector,
// chosen with rng (bn.RNG when nil), using strategy (HardcodedList{P:
// 0.5} when nil). Unlike Grow it does not pump the clock: the peering
// handshakes settle as the simulation proceeds, which is exactly what a
// churn process attached to the running scheduler wants.
func (bn *BotNet) InfectFrom(strategy BootstrapStrategy, rng *sim.RNG) (*Bot, error) {
	if strategy == nil {
		strategy = HardcodedList{P: 0.5}
	}
	if rng == nil {
		rng = bn.RNG
	}
	// O(1) pick off the alive index — the former AliveBots() call
	// copied the full roster per churn join. The index's internal order
	// differs from infection order once takedowns have happened, so the
	// infector drawn for a given rng state changed when this landed
	// (outputs re-pinned).
	infector := bn.RandomAliveBot(rng)
	return bn.InfectOne(strategy.Candidates(bn, infector))
}

// Grow infects n bots using the strategy (HardcodedList{P: 0.5} when
// nil), choosing a random alive infector for each new bot and letting
// the network settle between infections.
func (bn *BotNet) Grow(n int, strategy BootstrapStrategy) error {
	for i := 0; i < n; i++ {
		if _, err := bn.InfectFrom(strategy, bn.RNG); err != nil {
			return fmt.Errorf("core: infection %d: %w", i, err)
		}
		bn.Run(bn.SettleTime)
	}
	return nil
}

// Takedown removes a bot (cleanup, seizure, or targeted DoS).
func (bn *BotNet) Takedown(b *Bot) { b.Takedown() }

// HotlistStaleness reports the fraction of registered C&C records whose
// bot is no longer alive — the expected staleness of a hotlist answer
// drawn right now, since the hotlist samples uniformly from the
// registry and the registry never forgets. Records are matched against
// bots by their current derived address, so the measure survives
// address rotation. An empty registry reports 0.
func (bn *BotNet) HotlistStaleness() float64 {
	nRecs := bn.Master.records.len()
	if nRecs == 0 {
		return 0
	}
	// Derive the alive-onion set from the swap-remove alive index: the
	// former full-roster scan (dead bots included) made every staleness
	// sample O(all bots ever infected).
	alive := make(map[string]struct{}, bn.alive.count())
	for _, idx := range bn.alive.ids {
		alive[bn.bots[idx].Onion()] = struct{}{}
	}
	dead := 0
	for i := 0; i < nRecs; i++ {
		if _, ok := alive[bn.Master.CurrentOnionOf(bn.Master.records.at(i))]; !ok {
			dead++
		}
	}
	return float64(dead) / float64(nRecs)
}

// NewVirtualBot constructs a bot on a caller-supplied proxy (a
// SuperOnion virtual node) wired to this botnet's master, and adopts it
// into the population. The caller rallies it.
func (bn *BotNet) NewVirtualBot(proxy *tor.OnionProxy) (*Bot, error) {
	bn.nextBot++
	seed := []byte(fmt.Sprintf("vbot-%d-%d", bn.seed, bn.nextBot))
	b, err := NewBotOnProxy(proxy, bn.Net, bn.cfg, bn.Master.SignPub(), bn.Master.EncPub().Pub,
		bn.Master.NetKey(), bn.Master.Onion(), seed)
	if err != nil {
		return nil, err
	}
	bn.adopt(b)
	return b, nil
}

// OverlayGraph snapshots the alive bots' peer relationships as an
// undirected graph (indices follow bn.AliveBots() order), letting the
// graph metrics of Figures 4-6 run against the protocol-level network.
func (bn *BotNet) OverlayGraph() *graph.Graph {
	alive := bn.AliveBots()
	index := make(map[string]int, len(alive))
	g := graph.New()
	for i, b := range alive {
		index[b.Onion()] = i
		g.AddNode(i)
	}
	for i, b := range alive {
		for _, peer := range b.PeerOnions() {
			if j, ok := index[peer]; ok {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Broadcast signs a command and pushes it through `via` random alive
// entry bots.
func (bn *BotNet) Broadcast(name string, args []byte, via int) error {
	alive := bn.AliveBots()
	if len(alive) == 0 {
		return fmt.Errorf("core: no alive bots to broadcast through")
	}
	if via < 1 {
		via = 1
	}
	entries := sim.Sample(bn.RNG, alive, via)
	onions := make([]string, 0, len(entries))
	for _, b := range entries {
		onions = append(onions, b.Onion())
	}
	cmd := bn.Master.NewCommand(name, args)
	return bn.Master.Broadcast(onions, cmd, bn.Config().FloodTTL)
}

// ExecutedCount reports how many alive bots have executed a command
// with the given name.
func (bn *BotNet) ExecutedCount(name string) int {
	count := 0
	for _, b := range bn.AliveBots() {
		for _, rec := range b.Executed() {
			if rec.Name == name {
				count++
				break
			}
		}
	}
	return count
}
