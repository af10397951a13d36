// Package legacy implements, from scratch, the cryptographic schemes of
// the botnet families surveyed in Table I of the OnionBots paper —
//
//	Botnet          Crypto        Signing    Replay
//	Miner           none          none       yes
//	Storm           XOR           none       yes
//	ZeroAccess v1   RC4           RSA 512    yes
//	Zeus            chained XOR   RSA 2048   yes
//
// — together with an auditor that demonstrates each weakness concretely:
// known-plaintext key recovery against the XOR family, command forgery
// where signing is absent, and replay everywhere. The auditor also runs
// the same probes against the OnionBot scheme (botcrypto.Seal + Ed25519
// signing + ReplayGuard) to show all three attacks fail, regenerating
// the Table I comparison the paper uses to motivate its design.
//
// The RSA rows sign with two fixed, public test keys committed with the
// package (rsa512.pem, rsa2048.pem), so an audit generates no RSA key.
//
// These are deliberately weak ciphers reimplemented for a defensive
// audit harness; nothing here should ever protect real data.
package legacy
