package sim

import (
	"container/heap"
	"time"
)

// HeapScheduler is the original container/heap event queue, kept as the
// executable specification of the scheduling contract. The timer-wheel
// Scheduler must fire an identical workload event-for-event in the same
// order (TestWheelMatchesHeapScheduler); benchmarks compare the two to
// quantify the wheel's steady-state win.
type HeapScheduler struct {
	now time.Time
	seq uint64
	pq  refEventHeap
}

type refEvent struct {
	at  time.Time
	seq uint64
	fn  func()
}

// NewHeapScheduler returns a reference scheduler starting at Epoch.
func NewHeapScheduler() *HeapScheduler {
	return &HeapScheduler{now: Epoch}
}

// Now reports the current virtual time.
func (s *HeapScheduler) Now() time.Time { return s.now }

// Elapsed reports how much virtual time has passed since Epoch.
func (s *HeapScheduler) Elapsed() time.Duration { return s.now.Sub(Epoch) }

// Len reports the number of pending events.
func (s *HeapScheduler) Len() int { return s.pq.Len() }

// After schedules fn to run d after the current virtual time. Negative
// durations are clamped to zero.
func (s *HeapScheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.seq++
	heap.Push(&s.pq, &refEvent{at: s.now.Add(d), seq: s.seq, fn: fn})
}

// Every schedules fn to run every d while it returns true; non-positive
// d is rejected.
func (s *HeapScheduler) Every(d time.Duration, fn func() bool) {
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

// Step runs the single next pending event, advancing the clock to its
// firing time. It reports whether an event was run.
func (s *HeapScheduler) Step() bool {
	if s.pq.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.pq).(*refEvent)
	s.now = ev.at
	ev.fn()
	return true
}

// RunUntil runs every event with firing time <= t, then advances the
// clock to t, returning the number of events run.
func (s *HeapScheduler) RunUntil(t time.Time) int {
	n := 0
	for s.pq.Len() > 0 && !s.pq[0].at.After(t) {
		s.Step()
		n++
	}
	if t.After(s.now) {
		s.now = t
	}
	return n
}

// RunFor runs the simulation for d of virtual time (see RunUntil).
func (s *HeapScheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// RunAll runs events until the queue drains or maxEvents have run
// (maxEvents <= 0 means no cap), returning the number run.
func (s *HeapScheduler) RunAll(maxEvents int) int {
	n := 0
	for s.pq.Len() > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		s.Step()
		n++
	}
	return n
}

// refEventHeap orders events by (time, sequence), so simultaneous events
// fire in the order they were scheduled.
type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refEventHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
