// Package onionbots is a defensive research reproduction of
// "OnionBots: Subverting Privacy Infrastructure for Cyber Attacks"
// (Sanatinia & Noubir, DSN 2015).
//
// Everything runs in-process against a simulated Tor substrate: the
// self-healing DDSR overlay (Section IV-C), the OnionBot reference
// design (Section IV), the SOAP sybil mitigation (Section VI-B), the
// HSDir-positioning mitigation (Section VI-A), and the hardened
// next-generation variants (Section VII). See README.md for the system
// inventory and how to reproduce each figure, docs/ARCHITECTURE.md for
// the simulator design and the determinism contract, and bench_test.go
// for the per-figure regeneration harness.
//
// The implementation lives under internal/; cmd/onionsim is the entry
// point, and examples/ holds runnable walkthroughs.
package onionbots
