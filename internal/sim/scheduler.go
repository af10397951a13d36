package sim

import (
	"math/bits"
	"time"
)

// Epoch is the virtual time at which every Scheduler starts. The date is
// the arXiv posting date of the OnionBots paper; nothing depends on the
// absolute value.
var Epoch = time.Date(2015, time.January, 14, 0, 0, 0, 0, time.UTC)

// Timer-wheel geometry. Virtual times are nanoseconds since Epoch;
// level L buckets are tickNS<<(wheelBits*L) wide and each level holds
// wheelSlots of them. Seven levels cover tickShift + 7·wheelBits = 63
// bits, the whole int64-nanosecond horizon (~292 virtual years), so
// every event has a bucket:
//
//	L0 ~2.1ms/slot, L1 ~134ms, L2 ~8.6s, L3 ~9.2min, L4 ~9.8h, L5 ~26d, L6 ~4.6y
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
	tickShift   = 21 // 2^21 ns ≈ 2.1ms level-0 granularity
)

// event is one scheduled callback. Events are arena-pooled: the wheel
// links them through next (bucket lists and the freelist), and the
// near-term heap holds bare pointers, so steady-state scheduling does
// zero heap allocations.
type event struct {
	at   int64 // virtual ns since Epoch
	seq  uint64
	fn   func()
	next *event
}

// wheelLevel is one ring of coarse buckets. Slot lists are unsorted
// (LIFO push); exact (time, seq) order is restored when a due bucket
// cascades into the near-term heap.
type wheelLevel struct {
	slots    [wheelSlots]*event
	occupied uint64 // bit i set ⇔ slots[i] non-empty
}

// Scheduler is a single-threaded discrete-event scheduler with a virtual
// clock. It is intentionally not safe for concurrent use: determinism is
// the whole point, and every experiment drives it from one goroutine.
//
// Internally it is a hierarchical timer wheel cascading into a small
// near-term binary heap. The heap alone carries the ordering contract —
// events fire in exact (time, sequence) order, simultaneous events in
// FIFO order — while the wheel keeps far-future events out of the heap
// so steady-state scheduling costs O(1) bucket pushes instead of
// O(log n) heap churn over the whole pending set.
type Scheduler struct {
	nowNS int64
	seq   uint64
	n     int // total pending events (heap + wheel)

	// near holds every pending event with at < drainedUntil, ordered by
	// (at, seq). All other events sit in wheel buckets.
	near         []*event
	drainedUntil int64

	levels [wheelLevels]wheelLevel

	// nextBucket caches the earliest start time of any occupied bucket;
	// maxInt64 when the wheel is empty. Events may be popped from the
	// heap only while heapTop.at < nextBucket.
	nextBucket int64

	free *event // event arena freelist

	batches map[batchKey]*tickBatch
}

const maxInt64 = int64(1<<63 - 1)

// NewScheduler returns a scheduler whose clock starts at Epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{nextBucket: maxInt64}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Time { return Epoch.Add(time.Duration(s.nowNS)) }

// Elapsed reports how much virtual time has passed since Epoch.
func (s *Scheduler) Elapsed() time.Duration { return time.Duration(s.nowNS) }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return s.n }

// newEvent takes an event off the freelist (or allocates one).
func (s *Scheduler) newEvent(at int64, fn func()) *event {
	ev := s.free
	if ev == nil {
		ev = new(event)
	} else {
		s.free = ev.next
	}
	s.seq++
	ev.at, ev.seq, ev.fn, ev.next = at, s.seq, fn, nil
	return ev
}

// release returns a fired event to the freelist.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil
	ev.next = s.free
	s.free = ev
}

// After schedules fn to run d after the current virtual time. A negative
// d runs the event at the current time (it still goes through the queue
// so that ordering relative to other due events is stable). Delays past
// the int64-nanosecond horizon (~292 years after Epoch) clamp just below
// it, so the event still fires rather than colliding with the internal
// maxInt64 sentinel.
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	at := s.nowNS + int64(d)
	if at < s.nowNS || at == maxInt64 { // overflow or sentinel collision
		at = maxInt64 - 1
	}
	s.insert(s.newEvent(at, fn))
}

// insert places an event in the heap (when it lands inside the drained
// horizon) or a wheel bucket. The top level spans the whole horizon, so
// the loop always finds one.
func (s *Scheduler) insert(ev *event) {
	s.n++
	if ev.at < s.drainedUntil {
		s.heapPush(ev)
		return
	}
	base := s.drainedUntil >> tickShift
	slot := ev.at >> tickShift
	for l := 0; l < wheelLevels; l++ {
		if slot-base < wheelSlots {
			idx := slot & wheelMask
			lv := &s.levels[l]
			ev.next = lv.slots[idx]
			lv.slots[idx] = ev
			lv.occupied |= 1 << uint(idx)
			if start := slot << (tickShift + uint(l)*wheelBits); start < s.nextBucket {
				s.nextBucket = start
			}
			return
		}
		base >>= wheelBits
		slot >>= wheelBits
	}
}

// recomputeNextBucket rescans the occupancy bitmaps for the earliest
// bucket start; called after a drain empties a slot.
func (s *Scheduler) recomputeNextBucket() {
	s.nextBucket = maxInt64
	base := s.drainedUntil >> tickShift
	for l := 0; l < wheelLevels; l++ {
		lv := &s.levels[l]
		if lv.occupied != 0 {
			w := base & wheelMask
			// First occupied slot at or after the window start, circular.
			rot := lv.occupied>>uint(w) | lv.occupied<<uint(wheelSlots-w)
			off := int64(bits.TrailingZeros64(rot))
			start := (base + off) << (tickShift + uint(l)*wheelBits)
			if start < s.nextBucket {
				s.nextBucket = start
			}
		}
		base >>= wheelBits
	}
}

// drainEarliest moves the earliest occupied bucket into finer structure:
// level-0 buckets cascade into the near-term heap, higher levels
// redistribute into lower wheels. Ties across levels drain the highest
// level first so its events land in lower buckets before those drain.
// peek calls it only while nextBucket names an occupied bucket.
func (s *Scheduler) drainEarliest() {
	// Locate the earliest bucket, preferring the highest level on ties.
	bestStart := maxInt64
	bestLevel := -1
	base := s.drainedUntil >> tickShift
	for l := 0; l < wheelLevels; l++ {
		lv := &s.levels[l]
		if lv.occupied != 0 {
			w := base & wheelMask
			rot := lv.occupied>>uint(w) | lv.occupied<<uint(wheelSlots-w)
			off := int64(bits.TrailingZeros64(rot))
			start := (base + off) << (tickShift + uint(l)*wheelBits)
			if start < bestStart || (start == bestStart && l > bestLevel) {
				bestStart, bestLevel = start, l
			}
		}
		base >>= wheelBits
	}
	shift := tickShift + uint(bestLevel)*wheelBits
	idx := (bestStart >> shift) & wheelMask
	lv := &s.levels[bestLevel]
	list := lv.slots[idx]
	lv.slots[idx] = nil
	lv.occupied &^= 1 << uint(idx)

	// Advance the drained horizon: a level-0 drain proves everything
	// before the bucket's end is now in the heap; a higher-level drain
	// only proves everything before its start.
	// The last level-0 bucket's end is 2^63, which saturates so that
	// later events go straight to the heap instead of wrapping.
	if bestLevel == 0 {
		s.drainedUntil = bestStart + 1<<tickShift
		if s.drainedUntil < bestStart {
			s.drainedUntil = maxInt64
		}
	} else if bestStart > s.drainedUntil {
		s.drainedUntil = bestStart
	}

	if bestLevel == 0 {
		for list != nil {
			ev := list
			list = list.next
			ev.next = nil
			s.heapPush(ev)
		}
	} else {
		for list != nil {
			ev := list
			list = list.next
			ev.next = nil
			s.n-- // insert re-counts
			s.insert(ev)
		}
	}
	s.recomputeNextBucket()
}

// peek returns the next event to fire without popping it, cascading
// wheel buckets into the heap until the heap top is provably global-min.
// Returns nil when nothing is pending.
func (s *Scheduler) peek() *event {
	for {
		if len(s.near) > 0 && s.near[0].at < s.nextBucket {
			return s.near[0]
		}
		if s.nextBucket == maxInt64 {
			if len(s.near) > 0 {
				return s.near[0]
			}
			return nil
		}
		s.drainEarliest()
	}
}

// Step runs the single next pending event, advancing the clock to its
// firing time. It reports whether an event was run.
func (s *Scheduler) Step() bool {
	ev := s.peek()
	if ev == nil {
		return false
	}
	s.heapPop()
	s.n--
	s.nowNS = ev.at
	fn := ev.fn
	s.release(ev)
	fn()
	return true
}

// RunUntil runs every event with firing time <= t, then advances the
// clock to t. It returns the number of events run.
func (s *Scheduler) RunUntil(t time.Time) int {
	target := t.Sub(Epoch).Nanoseconds()
	n := 0
	for {
		ev := s.peek()
		if ev == nil || ev.at > target {
			break
		}
		s.Step()
		n++
	}
	if target > s.nowNS {
		s.nowNS = target
	}
	return n
}

// RunFor runs the simulation for d of virtual time (see RunUntil).
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.Now().Add(d))
}

// RunAll runs events until the queue drains or maxEvents have run,
// whichever comes first. maxEvents <= 0 means no cap. It returns the
// number of events run; callers that pass a cap can compare against it to
// detect runaway recurring events.
func (s *Scheduler) RunAll(maxEvents int) int {
	n := 0
	for s.n > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// Every schedules fn to run every d, starting d from now, for as long as
// fn keeps returning true. A non-positive d is rejected by doing nothing;
// recurring zero-delay events would otherwise wedge the clock.
func (s *Scheduler) Every(d time.Duration, fn func() bool) {
	if d <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if fn() {
			s.After(d, tick)
		}
	}
	s.After(d, tick)
}

// near-term heap: a hand-rolled binary heap of *event ordered by
// (at, seq), avoiding container/heap's interface boxing on the hot path.

func (s *Scheduler) heapPush(ev *event) {
	s.near = append(s.near, ev)
	i := len(s.near) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := s.near[parent]
		if p.at < ev.at || (p.at == ev.at && p.seq < ev.seq) {
			break
		}
		s.near[i] = p
		i = parent
	}
	s.near[i] = ev
}

func (s *Scheduler) heapPop() *event {
	h := s.near
	top := h[0]
	last := h[len(h)-1]
	h[len(h)-1] = nil
	h = h[:len(h)-1]
	s.near = h
	if len(h) > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			if l >= len(h) {
				break
			}
			c := l
			if r < len(h) {
				cr := h[r]
				cl := h[l]
				if cr.at < cl.at || (cr.at == cl.at && cr.seq < cl.seq) {
					c = r
				}
			}
			ch := h[c]
			if last.at < ch.at || (last.at == ch.at && last.seq < ch.seq) {
				break
			}
			h[i] = ch
			i = c
		}
		h[i] = last
	}
	return top
}
