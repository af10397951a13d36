// Package pow implements the attacker-side counter-mitigation of
// Section VII-A with which a next-generation OnionBot would resist
// SOAP: hashcash-style proof-of-work on peering. A new node must solve
// a SHA-256 puzzle before being accepted, and the difficulty escalates
// with recent acceptance volume, so older nodes are preferred and a
// clone flood pays an exponentially growing bill.
//
// The mechanism trades recoverability for adversarial resilience — the
// open question the paper poses — and the experiment harness measures
// exactly that trade: attacker hashes per contained bot versus honest
// repair cost under takedown. The section's second mechanism, a peering
// delay that grows with the peer-list size, is not modelled.
//
// The package is dependency-free within the project (internal/core
// imports it for the requester-side solver), so the hardening can be
// wired into any bot via core.Bot.AcceptVet.
package pow
