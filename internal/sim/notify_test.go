package sim

import (
	"fmt"
	"testing"
)

// notifyLog records which waiter fired and when.
type notifyLog struct {
	k   *Kernel
	got []string
}

func (l *notifyLog) note(name string) {
	l.got = append(l.got, fmt.Sprintf("%s@%v", name, l.k.Now()))
}

func noteCallback(a any) {
	l := a.(*notifyLog)
	l.note("cb")
}

// TestNotifyOrderWithProcesses: callback and process waiters on one
// signal fire in registration order, all at the pulse instant.
func TestNotifyOrderWithProcesses(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	log := &notifyLog{k: k}
	var w Waiter
	k.Spawn("a", func(p *Proc) {
		p.Wait(s)
		log.note("a")
	})
	k.At(0, func() { s.Notify(&w, noteCallback, log) })
	k.Spawn("b", func(p *Proc) {
		p.Wait(s)
		log.note("b")
	})
	k.After(Microsecond, s.Pulse)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{"a@1us", "cb@1us", "b@1us"})
	if got := fmt.Sprint(log.got); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}

// TestNotifyFiresOnce: one registration fires at the first pulse only;
// a callback that re-registers sees the next pulse.
func TestNotifyFiresOnce(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	log := &notifyLog{k: k}
	var once, rearm Waiter
	s.Notify(&once, noteCallback, log)
	var rearmed func(any)
	rearmed = func(any) {
		log.note("rearm")
		s.Notify(&rearm, rearmed, nil)
	}
	s.Notify(&rearm, rearmed, nil)
	for i := 1; i <= 3; i++ {
		k.At(Time(i)*Time(Microsecond), s.Pulse)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{"cb@1us", "rearm@1us", "rearm@2us", "rearm@3us"})
	if got := fmt.Sprint(log.got); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}

// TestNotifyPulseWithoutWaitersLost: a Signal has no memory for
// callbacks either — a pulse before the registration is not seen.
func TestNotifyPulseWithoutWaitersLost(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	log := &notifyLog{k: k}
	var w Waiter
	k.At(0, s.Pulse)
	k.At(0, func() { s.Notify(&w, noteCallback, log) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(log.got) != 0 {
		t.Fatalf("callback observed a pulse from before it registered: %v", log.got)
	}
	if s.Pulses() != 1 {
		t.Fatalf("pulses = %d, want 1", s.Pulses())
	}
}

func countCallback(a any) { *a.(*int)++ }

// TestNotifyPulseAllocs: registering, pulsing and running the callback
// allocate nothing once the waiter list and event queue are warm.
func TestNotifyPulseAllocs(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	var w Waiter
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Notify(&w, countCallback, &n)
		s.Pulse()
		if err := k.Step(k.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Notify+Pulse allocated %.1f times per round", allocs)
	}
	if n != 1001 {
		t.Fatalf("callback ran %d times, want 1001", n)
	}
}

// TestStoppedDuringTeardown: Stopped is false while events run and true
// for events that teardown drains after the horizon.
func TestStoppedDuringTeardown(t *testing.T) {
	k := NewKernel()
	var during, drained bool
	k.At(Time(Microsecond), func() { during = k.Stopped() })
	k.At(Time(3*Microsecond), func() { drained = k.Stopped() })
	if err := k.Run(Time(2 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if during || !drained {
		t.Fatalf("Stopped during the run = %v, in teardown = %v", during, drained)
	}
}
