package sim

import (
	"fmt"
	"testing"
	"time"
)

// timeline is the scheduling contract both implementations must satisfy.
type timeline interface {
	Now() time.Time
	Len() int
	After(time.Duration, func())
	Every(time.Duration, func() bool)
	Step() bool
	RunUntil(time.Time) int
	RunFor(time.Duration) int
	RunAll(int) int
}

var (
	_ timeline = (*Scheduler)(nil)
	_ timeline = (*HeapScheduler)(nil)
)

// driveRandomWorkload runs one randomized mixed workload against a
// timeline and returns the trace of (firing id, firing time) pairs. The
// workload mixes After/Every, negative-delay clamps, same-tick pileups,
// events scheduled from inside events, and far-future outliers that
// exercise the wheel's top levels.
func driveRandomWorkload(s timeline, seed uint64) []string {
	rng := NewRNG(seed)
	var trace []string
	id := 0
	record := func(tag string) func() {
		id++
		n := id
		return func() {
			trace = append(trace, fmt.Sprintf("%s#%d@%d", tag, n, s.Now().UnixNano()))
		}
	}
	randDelay := func() time.Duration {
		switch rng.Intn(6) {
		case 0:
			return time.Duration(rng.Intn(5)) * time.Millisecond // same level-0 bucket pileups
		case 1:
			return time.Duration(rng.Intn(2000)) * time.Millisecond
		case 2:
			return time.Duration(rng.Intn(90)) * time.Minute
		case 3:
			return time.Duration(rng.Intn(50)) * time.Hour
		case 4:
			return -time.Duration(rng.Intn(10)) * time.Second // negative clamp
		default:
			return time.Duration(rng.Intn(3650*24)) * time.Hour // years out: top levels
		}
	}

	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0:
			s.After(randDelay(), record("after"))
		case 1:
			// A delay with a chance of pointing into the past (runs now).
			s.After(randDelay(), record("past"))
		case 2:
			left := 1 + rng.Intn(4)
			fire := record("every")
			s.Every(time.Duration(1+rng.Intn(600))*time.Second, func() bool {
				fire()
				left--
				return left > 0
			})
		case 3:
			// Schedule from inside an event, including a same-instant child.
			inner := record("inner")
			d := randDelay()
			s.After(d, func() {
				trace = append(trace, fmt.Sprintf("outer@%d", s.Now().UnixNano()))
				s.After(0, inner)
				s.After(-time.Hour, record("past-child"))
			})
		}
		// Interleave scheduling with partial draining, as simulations do.
		if rng.Intn(3) == 0 {
			s.RunFor(time.Duration(rng.Intn(120)) * time.Second)
		}
	}
	s.RunAll(200000)
	return trace
}

// TestWheelMatchesHeapScheduler drives the timer-wheel Scheduler and the
// reference HeapScheduler with identical randomized workloads and
// requires event-for-event identical firing sequences — the determinism
// contract the wheel swap must preserve.
func TestWheelMatchesHeapScheduler(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		wheel := driveRandomWorkload(NewScheduler(), seed)
		ref := driveRandomWorkload(NewHeapScheduler(), seed)
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel fired %d events, heap fired %d", seed, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: firing %d diverges:\n  wheel: %s\n  heap:  %s",
					seed, i, wheel[i], ref[i])
			}
		}
	}
}

// TestWheelFarFutureTopLevel pins the top wheel level: events beyond
// level 5's ~4.6-year span must still fire, in order.
func TestWheelFarFutureTopLevel(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(10*365*24*time.Hour, func() { order = append(order, 2) })
	s.After(6*365*24*time.Hour, func() { order = append(order, 1) })
	s.After(20*365*24*time.Hour, func() { order = append(order, 3) })
	s.After(time.Second, func() { order = append(order, 0) })
	if n := s.RunAll(0); n != 4 {
		t.Fatalf("ran %d events, want 4", n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
	if got := s.Elapsed(); got != 20*365*24*time.Hour {
		t.Fatalf("elapsed = %v, want 20y", got)
	}
}

// TestWheelHorizonClamp pins the int64 saturation edge: a delay landing
// exactly on the horizon, or summing past it from a later clock, must
// still fire (just below the horizon) instead of wedging the wheel.
func TestWheelHorizonClamp(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.After(time.Duration(maxInt64), func() { fired++ })
	s.RunFor(time.Hour)
	s.After(time.Duration(maxInt64), func() { fired++ })
	if n := s.RunAll(0); n != 2 || fired != 2 {
		t.Fatalf("ran %d events, fired %d, want 2/2 (Len now %d)", n, fired, s.Len())
	}
	if got := s.Elapsed(); got != time.Duration(maxInt64-1) {
		t.Fatalf("elapsed = %d, want %d", got, maxInt64-1)
	}
}

// TestSchedulerSteadyStateZeroAlloc asserts the pooled event arena
// claim: once warm, a schedule/fire cycle performs no heap allocations.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the arena, the heap slice, and the wheel.
	for i := 0; i < 256; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.RunAll(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(3*time.Millisecond, fn)
		s.After(90*time.Second, fn)
		s.RunAll(0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire allocated %.1f objects/op, want 0", allocs)
	}
}

// TestEveryBatchedMatchesEvery pins the batched-tick contract: a batch
// fires its Ticker subscribers at the same instants, in subscription
// order, honoring the per-subscriber stop return, exactly like
// individual closure Every timers running the same duties. The
// subscription pattern deliberately interleaves two logical same-period
// duties per entity ("a" and "r", like a bot's ping and gossip timers)
// plus a different period whose firings coincide every fifth tick —
// the orders that would drift if batches were keyed per call site or
// mis-sequenced across groups.
func TestEveryBatchedMatchesEvery(t *testing.T) {
	run := func(schedule func(s *Scheduler, d time.Duration, e *tickEntity, tag uint8)) []string {
		s := NewScheduler()
		var trace []string
		for i := 0; i < 5; i++ {
			e := &tickEntity{s: s, trace: &trace, i: i, aLeft: 2 + i}
			schedule(s, time.Minute, e, tickTagA)
			schedule(s, time.Minute, e, tickTagR)
		}
		for i := 0; i < 3; i++ {
			schedule(s, 5*time.Minute, &tickEntity{s: s, trace: &trace, i: i}, tickTagB)
		}
		s.RunAll(10000)
		return trace
	}
	individual := run(func(s *Scheduler, d time.Duration, e *tickEntity, tag uint8) {
		s.Every(d, func() bool { return e.BatchTick(tag) })
	})
	batched := run(func(s *Scheduler, d time.Duration, e *tickEntity, tag uint8) {
		s.EveryBatched(d, e, tag)
	})
	// a: 2+3+4+5+6 firings; r: 4 each (1m..4m); b: 4 each (5m..20m).
	if want := 20 + 5*4 + 3*4; len(individual) != want {
		t.Fatalf("individual fired %d, want %d", len(individual), want)
	}
	if len(individual) != len(batched) {
		t.Fatalf("individual fired %d, batched fired %d", len(individual), len(batched))
	}
	for i := range individual {
		if individual[i] != batched[i] {
			t.Fatalf("firing %d diverges: individual %s, batched %s", i, individual[i], batched[i])
		}
	}
}

// TestEveryBatchedLateJoiner pins the join semantics: a subscriber added
// at a later instant — even one whose phase lines up with an existing
// batch — gets its own batch, firing exactly when and in the sequence
// position an individual Every timer would (here: scheduled from inside
// the first batch's tick, so it precedes the first batch's rescheduled
// event at 2m, exactly as a nested individual Every would).
func TestEveryBatchedLateJoiner(t *testing.T) {
	s := NewScheduler()
	var trace []string
	s.EveryBatched(time.Minute, tickFunc(func() bool {
		trace = append(trace, fmt.Sprintf("first@%v", s.Elapsed()))
		if s.Elapsed() == time.Minute {
			// Same instant as the batch tick: must first fire at 2m.
			s.EveryBatched(time.Minute, tickFunc(func() bool {
				trace = append(trace, fmt.Sprintf("joined@%v", s.Elapsed()))
				return false
			}), 0)
		}
		return s.Elapsed() < 3*time.Minute
	}), 0)
	s.RunFor(30 * time.Second)
	// Off-phase subscriber: period 1m starting at 30s → fires at 1m30s.
	s.EveryBatched(time.Minute, tickFunc(func() bool {
		trace = append(trace, fmt.Sprintf("offphase@%v", s.Elapsed()))
		return false
	}), 0)
	s.RunAll(1000)
	want := []string{"first@1m0s", "offphase@1m30s", "joined@2m0s", "first@2m0s", "first@3m0s"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

// BenchmarkSchedulerSteadyState measures the steady-state cost of one
// schedule+fire cycle with a large standing population of pending
// timers, wheel versus reference heap. The wheel's win is exactly the
// gap this shows: O(1) bucket pushes and a small near-term heap versus
// O(log n) sift over the whole pending set.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	for _, standing := range []int{1000, 100000} {
		bench := func(b *testing.B, s timeline) {
			fn := func() {}
			// Standing population of far-out timers (the 10^5 bots).
			for i := 0; i < standing; i++ {
				s.After(time.Hour+time.Duration(i)*time.Millisecond, fn)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.After(50*time.Millisecond, fn)
				s.Step()
			}
		}
		b.Run(fmt.Sprintf("wheel/standing=%d", standing), func(b *testing.B) {
			bench(b, NewScheduler())
		})
		b.Run(fmt.Sprintf("heap/standing=%d", standing), func(b *testing.B) {
			bench(b, NewHeapScheduler())
		})
	}
}

// BenchmarkSchedulerBatchedTicks measures one maintenance period of an
// n-bot population, per-bot timers versus one batched tick.
func BenchmarkSchedulerBatchedTicks(b *testing.B) {
	const bots = 10000
	b.Run("per-bot", func(b *testing.B) {
		s := NewScheduler()
		for i := 0; i < bots; i++ {
			s.Every(time.Minute, func() bool { return true })
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.RunFor(time.Minute)
		}
	})
	b.Run("batched", func(b *testing.B) {
		s := NewScheduler()
		for i := 0; i < bots; i++ {
			s.EveryBatched(time.Minute, tickFunc(func() bool { return true }), 0)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.RunFor(time.Minute)
		}
	})
}
