package sim

import (
	"testing"
	"time"
)

func TestSchedulerStartsAtEpoch(t *testing.T) {
	s := NewScheduler()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
	if s.Elapsed() != 0 {
		t.Fatalf("Elapsed() = %v, want 0", s.Elapsed())
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	if n := s.RunAll(0); n != 3 {
		t.Fatalf("RunAll ran %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerSimultaneousEventsAreFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.RunAll(0)
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO for equal times)", i, order[i], i)
		}
	}
}

func TestSchedulerClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler()
	fired := time.Time{}
	s.After(42*time.Minute, func() { fired = s.Now() })
	s.Step()
	want := Epoch.Add(42 * time.Minute)
	if !fired.Equal(want) {
		t.Fatalf("event fired at %v, want %v", fired, want)
	}
}

func TestSchedulerPastEventsRunNow(t *testing.T) {
	s := NewScheduler()
	s.RunFor(time.Hour)
	ran := false
	s.After(-time.Hour, func() { ran = true }) // back to Epoch, in the past
	s.Step()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if got := s.Elapsed(); got != time.Hour {
		t.Fatalf("clock moved backwards: elapsed %v, want 1h", got)
	}
}

func TestSchedulerNegativeAfterClampsToZero(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Step()
	if !ran || s.Elapsed() != 0 {
		t.Fatalf("ran=%v elapsed=%v, want true, 0", ran, s.Elapsed())
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.After(time.Second, func() { count++ })
	s.After(time.Minute, func() { count++ })
	s.After(time.Hour, func() { count++ })

	n := s.RunUntil(Epoch.Add(30 * time.Minute))
	if n != 2 || count != 2 {
		t.Fatalf("ran %d events (count %d), want 2", n, count)
	}
	if got := s.Elapsed(); got != 30*time.Minute {
		t.Fatalf("elapsed = %v, want 30m", got)
	}
	if s.Len() != 1 {
		t.Fatalf("pending = %d, want 1", s.Len())
	}
}

func TestSchedulerEveryRepeatsUntilFalse(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.Every(time.Minute, func() bool {
		count++
		return count < 5
	})
	s.RunAll(100)
	if count != 5 {
		t.Fatalf("recurring event ran %d times, want 5", count)
	}
	if got := s.Elapsed(); got != 5*time.Minute {
		t.Fatalf("elapsed = %v, want 5m", got)
	}
}

func TestSchedulerEveryRejectsNonPositiveInterval(t *testing.T) {
	s := NewScheduler()
	s.Every(0, func() bool { return true })
	s.Every(-time.Second, func() bool { return true })
	if s.Len() != 0 {
		t.Fatalf("non-positive Every scheduled %d events, want 0", s.Len())
	}
}

func TestSchedulerRunAllCap(t *testing.T) {
	s := NewScheduler()
	s.Every(time.Second, func() bool { return true }) // runs forever
	if n := s.RunAll(50); n != 50 {
		t.Fatalf("RunAll(50) ran %d events, want 50", n)
	}
}

func TestSchedulerEventsScheduledDuringEvents(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.After(time.Second, func() {
		order = append(order, "outer")
		s.After(time.Second, func() { order = append(order, "inner") })
	})
	s.After(2*time.Second, func() { order = append(order, "peer") })
	s.RunAll(0)
	// inner and peer both fire at t=2s; peer was scheduled first so it
	// must run first.
	want := []string{"outer", "peer", "inner"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
