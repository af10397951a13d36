package sim

import "time"

// Batched recurring timers. A simulation with n bots, each running an
// Every(period) maintenance timer, pays n heap insertions per period and
// keeps n pending events alive. EveryBatched collapses all subscribers
// that share a (period, subscription instant) pair into one recurring
// wheel event that iterates the due Tickers in subscription order —
// one event per period per setup burst, regardless of population.
//
// Ordering contract: within a batch, subscribers run back to back in
// subscription order — the order their individual Every timers would
// have fired, since simultaneous events fire FIFO. Against other
// same-instant events, the batch event occupies the sequence position
// of the *first* subscriber's individual timer: it is created when that
// subscriber subscribes and reschedules at every instant the individual
// timers would all have rescheduled. That makes batching output-identical
// to individual Every timers provided no *foreign* event, scheduled
// between two subscriptions of the same burst, fires at exactly a tick
// instant of the batch (it would interleave between individual timers
// but sort entirely before or after the batch; the repository's bot
// populations subscribe contiguously at setup, and the CI byte-compare
// holds). For the same reason closure Every timers are never batched.
// Subscribers arriving at a *different* virtual instant never join an
// existing batch (even when their phase lines up) precisely because
// their individual timer would have carried a fresh sequence number;
// they start a new batch, which for a population trickling in one at a
// time degrades gracefully to per-subscriber timers.
type batchKey struct {
	period  int64
	created int64 // virtual ns the batch was created; implies the phase
}

// Ticker is a batched-timer subscriber: one object implements every
// periodic duty it owns, dispatching on the tag it subscribed with. A
// population of n entities with k timers each then costs n·k two-word
// batchSub entries in flat arrays instead of n·k heap-allocated
// closures, and a tick streams those arrays without chasing
// captured-variable blocks. Return false to unsubscribe, as with Every.
type Ticker interface {
	BatchTick(tag uint8) bool
}

// batchSub is one (Ticker, tag) subscription in a batch.
type batchSub struct {
	t   Ticker
	tag uint8
}

// tickBatch is the shared recurring event for one (period, instant).
// Note the key is (period, instant) only, not the call site: distinct
// logical timer groups subscribed interleaved at one instant with one
// period merge into a single batch, which preserves exactly the
// interleaved subscription order their individual timers would fire in.
type tickBatch struct {
	subs []batchSub
}

// EveryBatched schedules t.BatchTick(tag) like Every(d, …) — first run
// d from now, repeating while it returns true — but multiplexes every
// subscriber with the same period and subscription instant onto a
// single recurring event. Use it for per-entity maintenance timers in
// large populations built in setup bursts. A non-positive d is rejected
// by doing nothing.
func (s *Scheduler) EveryBatched(d time.Duration, t Ticker, tag uint8) {
	if d <= 0 {
		return
	}
	key := batchKey{period: int64(d), created: s.nowNS}
	if s.batches == nil {
		s.batches = make(map[batchKey]*tickBatch)
	}
	sub := batchSub{t: t, tag: tag}
	if b, ok := s.batches[key]; ok {
		b.subs = append(b.subs, sub)
		return
	}
	b := &tickBatch{subs: []batchSub{sub}}
	s.batches[key] = b
	first := true
	s.Every(d, func() bool {
		if first {
			// Joins are only possible at the creation instant, which has
			// passed by the first tick; drop the lookup entry so a
			// trickling population does not accumulate dead map keys.
			first = false
			delete(s.batches, key)
		}
		// Compact in place, dropping subscribers that return false. No
		// subscriber can join mid-iteration: the lookup entry is gone by
		// the first tick, so a same-instant EveryBatched call from inside
		// a tick starts a new batch.
		w := 0
		for _, sub := range b.subs {
			if sub.t.BatchTick(sub.tag) {
				b.subs[w] = sub
				w++
			}
		}
		// Zero dropped tails so unsubscribed tickers become collectable.
		for i := w; i < len(b.subs); i++ {
			b.subs[i] = batchSub{}
		}
		b.subs = b.subs[:w]
		return len(b.subs) > 0
	})
}
