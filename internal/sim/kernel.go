package sim

import (
	"fmt"
	"sort"
)

// Kernel is the event loop at the heart of a simulation. It owns the
// virtual clock and the event queue and coordinates process scheduling.
// A Kernel (and everything scheduled on it) must be driven from one
// goroutine at a time; processes are coroutines that only the kernel
// resumes, so exactly one of them runs at any instant.
//
// Scheduling has a single resumer. Step (and teardown) is the only code
// that resumes a process coroutine. A process that blocks drives the
// event loop itself (see drive) until a wake comes up: its own wake
// lets it continue without any switch at all; another process's wake
// is recorded in the handed slot, and the blocking process yields back
// to Step, which resumes the handed process. Event order is untouched:
// the queue pops in the same (at, seq) order regardless of who drives.
type Kernel struct {
	now     Time
	q       ladder
	seq     uint64
	horizon Time
	stopped bool
	failure error

	// wake is the deferred process-resume slot: the rare event callbacks
	// that wake a process from inside arbitrary code (WaitTimeout's
	// timer, via requestWake) record it here, and the drive loop
	// performs the actual handoff in tail position. The hot wake form is
	// a nil-fn event handled directly by drive. At most one event
	// callback runs at a time and each wakes at most one process, so a
	// single slot suffices.
	wake *Proc

	// handed is the process drive chose to run next when it was not the
	// driving process itself. The driver yields, and Step resumes it.
	handed *Proc

	// parked holds processes blocked on a Signal (as opposed to a timed
	// sleep, which keeps a pending event alive). Teardown uses it to
	// unwind them. Each parked process records its position in
	// Proc.parkSlot, so parking and unparking cost O(1) without hashing.
	parked []*Proc

	// ahead is the process that has run ahead of the clock: it recorded
	// host charges with Proc.Charge that it has not yet paid. Only the
	// running process can be ahead (a process settles before it blocks),
	// and every entry point that reads the clock, schedules an event or
	// touches a waiter list settles it first (see Proc.Charge).
	ahead *Proc

	nextProc  int
	trace     *Trace
	eventsRun uint64
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time. Called from a process that is
// ahead of the clock, it first pays the process's pending charges.
func (k *Kernel) Now() Time {
	k.settleAhead()
	return k.now
}

// settleAhead pays the pending charges of the process that is ahead of
// the clock, if any (see Proc.Charge).
func (k *Kernel) settleAhead() {
	if p := k.ahead; p != nil {
		p.Settle()
	}
}

// Stopped reports whether the kernel is tearing down: Run has passed
// its horizon, or Finish has run. Teardown still drains pending events;
// a component that runs as a chain of events rather than as a process
// checks Stopped at each step and does nothing, as a blocked process
// would unwind.
func (k *Kernel) Stopped() bool { return k.stopped }

// EventsRun reports how many events the kernel has executed, which is a
// useful determinism fingerprint in tests.
func (k *Kernel) EventsRun() uint64 { return k.eventsRun }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t Time, fn func()) {
	k.AtArg(t, callClosure, fn)
}

// AtArg schedules fn(arg) at absolute time t. This is the
// allocation-free form of At: hot schedule sites pass a package-level
// function and a pointer argument instead of building a closure per
// event. arg must not be retained by the caller in a way that outlives
// the event unless that is intended.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) {
	k.settleAhead()
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, fn: fn, arg: arg}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.Now().Add(d), fn)
}

// AfterArg schedules fn(arg) to run d after the current time (the
// allocation-free form of After).
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.AtArg(k.Now().Add(d), fn, arg)
}

// drive outcomes.
const (
	// driveHanded: another process must run next; it is in k.handed,
	// and the driving process yields so that Step can resume it.
	driveHanded = iota
	// driveSelf: the next event resumed the driving process itself; it
	// simply keeps running — no switch happened.
	driveSelf
	// driveDone: the run is complete (queue empty, horizon reached, or a
	// failure recorded); control belongs back with the Run caller.
	driveDone
)

// drive executes events until the run completes or a process other than
// self must be resumed, in which case it records that process in
// k.handed and returns driveHanded. self is the process that is driving
// (nil for Step itself); a wake addressed to self returns driveSelf
// without any switch.
//
// Process wakes appear in two forms: as wake events (fn == nil, arg =
// *Proc — the hot form Sleep, Pulse, and Spawn schedule, handled here
// without any dispatch), and as the deferred wake slot filled by event
// callbacks (WaitTimeout's timer).
//
// Events sharing a timestamp drain in an inner batch loop: the clock is
// written once and the horizon is not re-checked, because an event at
// time t can only be followed at t by events that were already in order
// behind it (including any it schedules itself, which take later seq
// numbers and sort behind pending same-instant events exactly as they
// did under the binary heap).
func (k *Kernel) drive(self *Proc) int {
	q := &k.q
	for {
		if p := k.wake; p != nil {
			k.wake = nil
			if p == self {
				return driveSelf
			}
			k.handed = p
			return driveHanded
		}
		if k.failure != nil || q.count == 0 {
			return driveDone
		}
		if q.PeekAt() > k.horizon {
			return driveDone
		}
		// Hand-inlined pops: PeekAt has refilled the near tier for the
		// first, NextIsAt guarantees a pending event for the rest.
		e := q.near[q.head]
		q.head++
		q.count--
		if q.head >= nearKeep && q.head*2 >= len(q.near) {
			q.maintainNear()
		}
		k.now = e.at
		for {
			k.eventsRun++
			if e.fn == nil {
				p := e.arg.(*Proc)
				if p == self {
					return driveSelf
				}
				k.handed = p
				return driveHanded
			}
			e.call()
			if k.wake != nil || k.failure != nil || !q.NextIsAt(k.now) {
				break
			}
			e = q.near[q.head]
			q.head++
			q.count--
			if q.head >= nearKeep && q.head*2 >= len(q.near) {
				q.maintainNear()
			}
		}
	}
}

// scheduleWake schedules the hot-form wake event for p at absolute time
// t: fn == nil marks it for direct handoff in the drive loop.
func (k *Kernel) scheduleWake(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling wake at %v before now %v", t, k.now))
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, arg: p}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
}

// requestWake records p for resumption by the drive loop. Event
// callbacks must use this instead of touching the process directly so
// the handoff happens in tail position, after the callback has returned.
func (k *Kernel) requestWake(p *Proc) {
	if k.wake != nil {
		panic("sim: one event woke two processes")
	}
	k.wake = p
}

// Run executes events until the queue is empty or the horizon is reached,
// then unwinds any processes still parked on signals. horizon may be
// MaxTime for an unbounded run. It returns the first process failure, if
// any process panicked.
func (k *Kernel) Run(horizon Time) error {
	k.Step(horizon)
	k.stopParked()
	return k.failure
}

// RunAll is Run with an unbounded horizon.
func (k *Kernel) RunAll() error { return k.Run(MaxTime) }

// Step executes events up to and including horizon, leaving every
// process and pending event intact so the run can be continued with a
// later horizon. It is the windowed form of Run that the shard runtime
// drives barrier-to-barrier; a completed sequence of Steps must end
// with Finish to unwind parked processes. It returns the first process
// failure, if any.
//
// Step is the single resumer of process coroutines during a run. A
// resumed process returns here when it blocks with another process
// handed on (resume that one), when the run completes, or when its
// function ends; the latter two fall back to drive, which reports the
// run complete or carries on where the process left off.
func (k *Kernel) Step(horizon Time) error {
	k.horizon = horizon
	for k.drive(nil) == driveHanded {
		for p := k.handed; p != nil; p = k.handed {
			k.handed = nil
			k.resume(p)
		}
	}
	return k.failure
}

// resume switches to p's coroutine until p blocks or its function ends.
// A process gets a coroutine from the free list at its first resume and
// gives it back when it is dead.
func (k *Kernel) resume(p *Proc) {
	if p.co == nil {
		p.co = getCoro()
		p.co.p = p
	}
	p.co.next()
	if p.dead {
		putCoro(p.co)
		p.co = nil
	}
}

// Finish ends a Step sequence: it unwinds any processes still parked on
// signals or timed sleeps, exactly as Run does after its horizon, and
// returns the first recorded failure.
func (k *Kernel) Finish() error {
	k.stopParked()
	return k.failure
}

// NextEventAt returns the time of the earliest pending event, with ok
// false when the queue is empty. The shard runtime uses it to pick each
// window's base time.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.q.Len() == 0 {
		return 0, false
	}
	return k.q.PeekAt(), true
}

// stopParked resumes every process blocked on a signal under k.stopped,
// so that it unwinds with the stop sentinel. Timed sleepers are
// abandoned (their wake events were drained or are beyond the horizon);
// they unwind the same way when the remaining events are drained.
func (k *Kernel) stopParked() {
	k.stopped = true
	for len(k.parked) > 0 {
		// Deterministic order: lowest process id first.
		ps := append([]*Proc(nil), k.parked...)
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
		for _, p := range ps {
			if p.parkSlot != 0 {
				k.unpark(p)
				k.resume(p)
			}
		}
	}
	// Any remaining timed sleepers still hold pending wake events; run
	// them so the processes observe stopped and unwind.
	for k.q.Len() > 0 {
		e := k.q.Pop()
		// Do not advance the clock during teardown. A failed run can
		// leave stale wakes for processes that already unwound (e.g. a
		// Pulse drained here naming a dead waiter); skip those.
		if e.fn == nil {
			if p := e.arg.(*Proc); !p.dead {
				k.resume(p)
			}
			continue
		}
		e.call()
		if p := k.wake; p != nil {
			k.wake = nil
			if !p.dead {
				k.resume(p)
			}
		}
	}
}

// unpark removes p from the parked set if it is there.
func (k *Kernel) unpark(p *Proc) {
	i := p.parkSlot - 1
	if i < 0 {
		return
	}
	n := len(k.parked) - 1
	last := k.parked[n]
	k.parked[i] = last
	last.parkSlot = i + 1
	k.parked[n] = nil
	k.parked = k.parked[:n]
	p.parkSlot = 0
}

// fail records the first process failure; the run loop stops on the next
// iteration.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}
