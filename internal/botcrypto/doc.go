// Package botcrypto implements the cryptographic building blocks of the
// OnionBot reference design (Sections IV-D and IV-E):
//
//   - a deterministic byte stream (DRBG) for reproducible key derivation;
//   - the shared-key address schedule generateKey(PK_CC, H(K_B, i_p)),
//     which lets a bot rotate its .onion address every period while the
//     botmaster can still derive where to find it;
//   - ECIES-style public-key sealing ({K_B}_PK_CC — how a bot reports
//     its key to the C&C at rally time);
//   - fixed-size, uniform-looking sealed cells for all bot-to-bot
//     traffic, so relaying bots can distinguish neither the source, nor
//     the destination, nor the nature of a message;
//   - botnet-for-rent tokens: master-signed renter certificates with an
//     expiry and a command whitelist;
//   - replay protection (timestamp window plus nonce cache), the
//     property Table I shows every 2015-era botnet lacked.
//
// The sibling package legacy implements the Table I ciphers and the
// audits that demonstrate their weaknesses.
//
// # Sessions
//
// Seal/Open derive their sub-keys from the caller's secret on every
// call, which is the dominant fixed cost when one key seals millions of
// messages in a simulation run. SealKey precomputes that session state
// once — derived encryption and MAC keys, the expanded AES schedule,
// the HMAC instance — and exposes the same wire format through
// Seal/SealSized/Open/OpenSized methods plus SealSizedInto for sealing
// into a caller-provided buffer and OpenView for opening into the
// session's own scratch buffer; a warm session allocates nothing per
// message. The package-level functions remain as
// thin one-shot wrappers; hot paths (bots, the botmaster, SOAP clones,
// SuperOnion hosts) hold SealKey sessions for their long-lived keys.
//
// # Identity pooling
//
// DeriveBotMaterial pre-computes everything crypto-expensive about one
// bot's birth — K_B, the per-period hidden-service identity with its
// intro payload signed, the sealed rally report, the expanded sealing
// sessions — consuming the bot's DRBG in exactly the order the live
// birth path does, so core.IdentityPool can batch the work ahead of
// churn joins without changing a single output byte.
package botcrypto
