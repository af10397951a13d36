// Package core implements the OnionBot reference design of Section IV:
// the bot life cycle (infection, rally, waiting, execution), bootstrap
// strategies, the peering protocol whose Neighbors-of-Neighbor exchange
// drives DDSR self-repair at the protocol level, TTL-flooded
// indistinguishable messaging, the C&C relationship (key establishment
// at rally, address rotation via the shared key schedule, push commands,
// rentals), and the simulation orchestrator that experiments drive.
//
// Everything runs against the in-process Tor simulator (internal/tor)
// under a deterministic clock; "infection" is a simulator event creating
// a node, nothing more. The package exists so that the paper's SOAP
// mitigation (internal/soap) and its hardening counter-measures
// (internal/pow, internal/superonion) have a faithful target to be
// evaluated against.
//
// Infections draw their key material from an IdentityPool (on by
// default): batches of Ed25519/X25519 derivations run ahead of the
// join events, each entry a pure function of (botnet seed, infection
// index), so protocol-level churn joins cost O(handshake) while pooled
// and unpooled runs stay byte-identical per seed.
//
// Bots degrade gracefully when the infrastructure fails under them
// (the relay fault processes in internal/churn): a rally that cannot
// reach the C&C still leaves the bot alive and peered with its
// bootstrap neighbors, counts the failure, and queues a re-rally on a
// capped exponential backoff so the bot registers once the C&C heals;
// dials run under the BotConfig.Retry policy (tor.RetryPolicy).
package core
