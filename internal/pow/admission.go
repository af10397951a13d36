package pow

import (
	"time"
)

// Admission is the per-bot escalating proof-of-work gate on peering.
// Each acceptance within Window raises the difficulty by StepBits, so a
// clone flood faces an exponentially growing bill while organic churn
// stays cheap.
type Admission struct {
	// BaseBits is the difficulty with no recent acceptances. Default 8.
	BaseBits uint8
	// StepBits is added per acceptance within Window. Default 2.
	StepBits uint8
	// MaxBits caps escalation. Default 24.
	MaxBits uint8
	// Window is the escalation look-back. Default 1h.
	Window time.Duration
	// MaxPending caps the unsolved-challenge table. Default 1024.
	MaxPending int

	accepts    []time.Time
	challenges map[string]pendingChallenge
	// mintOrder lists (requester, mint time) in mint order (Vet's now
	// arguments are non-decreasing), so cap eviction pops the oldest in
	// O(1) amortized; entries whose challenge was solved, swept, or
	// re-minted meanwhile no longer match the table and are skipped
	// lazily, and the slice is compacted at sweep cadence.
	mintOrder []mintRecord
	nextChal  uint64
	lastSweep time.Time
}

// mintRecord is one mint-order queue entry; minted disambiguates a
// stale entry from a later re-mint by the same requester.
type mintRecord struct {
	onion  string
	minted time.Time
}

// pendingChallenge is an unsolved challenge plus its mint time, so the
// table can expire entries that will never come back with a proof.
type pendingChallenge struct {
	bytes  []byte
	minted time.Time
}

// NewAdmission returns an admission gate with defaults filled in.
func NewAdmission(base, step, max uint8, window time.Duration) *Admission {
	if base == 0 {
		base = 8
	}
	if step == 0 {
		step = 2
	}
	if max == 0 {
		max = 24
	}
	if window == 0 {
		window = time.Hour
	}
	return &Admission{
		BaseBits:   base,
		StepBits:   step,
		MaxBits:    max,
		Window:     window,
		MaxPending: 1024,
		challenges: make(map[string]pendingChallenge),
	}
}

// PendingChallenges reports the unsolved-challenge table size (for
// tests and monitoring).
func (a *Admission) PendingChallenges() int { return len(a.challenges) }

// RequiredBits reports the current difficulty.
func (a *Admission) RequiredBits(now time.Time) uint8 {
	recent := 0
	for _, t := range a.accepts {
		if now.Sub(t) <= a.Window {
			recent++
		}
	}
	bits := int(a.BaseBits) + recent*int(a.StepBits)
	if bits > int(a.MaxBits) {
		bits = int(a.MaxBits)
	}
	return uint8(bits)
}

// Vet implements the challenge-response admission: the first request
// from an onion receives a challenge and the current difficulty; a
// follow-up request carrying a valid proof at (or above) the required
// difficulty is admitted.
//
// Unsolved challenges expire: a SOAP-style clone flood mints a fresh
// onion per clone and never returns with a proof, so without expiry the
// gate leaked one table entry per clone forever — the exact adversary
// it exists to price out could blow up its memory for free. Entries
// older than Window are swept opportunistically, and the table is
// hard-capped at MaxPending (when full, the oldest entry is evicted to
// make room — forgetting an unsolved challenge only costs that
// requester a re-challenge).
func (a *Admission) Vet(onion string, nonce uint64, proofBits uint8, now time.Time) (ok bool, challenge []byte, required uint8) {
	a.expireChallenges(now)
	required = a.RequiredBits(now)
	pc, issued := a.challenges[onion]
	if issued && proofBits >= required && Verify(pc.bytes, nonce, proofBits) {
		delete(a.challenges, onion)
		a.accepts = append(a.accepts, now)
		a.gc(now)
		return true, nil, 0
	}
	if !issued {
		if max := a.maxPending(); len(a.challenges) >= max {
			a.evictOldest()
		}
		pc = pendingChallenge{bytes: a.mintChallenge(onion), minted: now}
		a.challenges[onion] = pc
		a.mintOrder = append(a.mintOrder, mintRecord{onion: onion, minted: now})
	}
	return false, pc.bytes, required
}

func (a *Admission) maxPending() int {
	if a.MaxPending > 0 {
		return a.MaxPending
	}
	return 1024
}

// expireChallenges drops unsolved challenges older than Window and
// compacts the mint-order queue. The sweep runs at most every
// Window/4, so its cost amortizes to O(1) per request.
func (a *Admission) expireChallenges(now time.Time) {
	if len(a.challenges) == 0 || now.Sub(a.lastSweep) < a.Window/4 {
		return
	}
	a.lastSweep = now
	for onion, pc := range a.challenges {
		if now.Sub(pc.minted) > a.Window {
			delete(a.challenges, onion)
		}
	}
	// Compact the queue: drop entries whose challenge was solved,
	// evicted, re-minted at a later position, or just swept, so the
	// slice stays proportional to the live table.
	kept := a.mintOrder[:0]
	for _, rec := range a.mintOrder {
		if pc, live := a.challenges[rec.onion]; live && pc.minted.Equal(rec.minted) {
			kept = append(kept, rec)
		}
	}
	a.mintOrder = kept
}

// evictOldest removes the oldest pending challenge: pop the mint-order
// queue past any stale entries (solved or swept meanwhile) to the
// first still-pending one. Amortized O(1) — every queued entry is
// popped at most once — where a table scan would cost O(MaxPending)
// per request during exactly the flood the cap defends against.
func (a *Admission) evictOldest() {
	for len(a.mintOrder) > 0 {
		rec := a.mintOrder[0]
		a.mintOrder = a.mintOrder[1:]
		if pc, live := a.challenges[rec.onion]; live && pc.minted.Equal(rec.minted) {
			delete(a.challenges, rec.onion)
			return
		}
	}
}

// mintChallenge derives a per-requester challenge. It need not be
// unpredictable, only unique per (gate, requester, sequence), so a
// counter-hash suffices and keeps the package dependency-free.
func (a *Admission) mintChallenge(onion string) []byte {
	a.nextChal++
	seed := make([]byte, 0, len("pow-challenge:")+len(onion)+4+8)
	seed = append(seed, "pow-challenge:"...)
	seed = append(seed, onion...)
	seed = append(seed, byte(a.nextChal), byte(a.nextChal>>8),
		byte(a.nextChal>>16), byte(a.nextChal>>24))
	d := digest(seed[:len(seed)+8], a.nextChal) // the tail holds the nonce
	return d[:16]
}

func (a *Admission) gc(now time.Time) {
	if len(a.accepts) < 256 {
		return
	}
	kept := a.accepts[:0]
	for _, t := range a.accepts {
		if now.Sub(t) <= a.Window {
			kept = append(kept, t)
		}
	}
	a.accepts = kept
}
