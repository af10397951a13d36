package sim

import (
	"fmt"
	"testing"
	"time"
)

// tickEntity is the subscriber population of
// TestEveryBatchedMatchesEvery: one Ticker owning an "a" duty (fires a
// bounded number of times), an "r" duty (fires until an elapsed
// deadline), and a "b" duty on a longer period — a bot-shaped mix of
// maintenance timers.
type tickEntity struct {
	s     *Scheduler
	trace *[]string
	i     int
	aLeft int
}

const (
	tickTagA uint8 = iota
	tickTagR
	tickTagB
)

func (e *tickEntity) BatchTick(tag uint8) bool {
	switch tag {
	case tickTagA:
		*e.trace = append(*e.trace, fmt.Sprintf("a%d@%d", e.i, e.s.Elapsed()/time.Second))
		e.aLeft--
		return e.aLeft > 0
	case tickTagR:
		*e.trace = append(*e.trace, fmt.Sprintf("r%d@%d", e.i, e.s.Elapsed()/time.Second))
		return e.s.Elapsed() < 4*time.Minute
	default:
		*e.trace = append(*e.trace, fmt.Sprintf("b%d@%d", e.i, e.s.Elapsed()/time.Second))
		return e.s.Elapsed() < 20*time.Minute
	}
}

// TestEveryBatchedTickNoPerTickAllocs pins the point of Ticker
// subscribers: once a population's batch exists, ticking it allocates
// nothing — the subscriber array is flat (Ticker, tag) pairs, with no
// closure blocks to allocate or chase.
func TestEveryBatchedTickNoPerTickAllocs(t *testing.T) {
	s := NewScheduler()
	var fired int
	for i := 0; i < 1024; i++ {
		s.EveryBatched(time.Minute, countTicker{&fired}, 0)
	}
	s.RunFor(time.Minute) // warm: first tick drops the join key
	allocs := testing.AllocsPerRun(32, func() {
		s.RunFor(time.Minute)
	})
	if allocs != 0 {
		t.Fatalf("steady batched tick allocated %.1f objects/period, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("tickers never fired")
	}
}

type countTicker struct{ n *int }

func (c countTicker) BatchTick(uint8) bool { *c.n++; return true }

// tickFunc adapts a closure to Ticker for tests that need a one-off
// subscriber.
type tickFunc func() bool

func (f tickFunc) BatchTick(uint8) bool { return f() }
