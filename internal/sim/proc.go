package sim

import (
	"fmt"
	"iter"
	"sync"
)

// stopSentinel is panicked inside a process when the kernel is tearing
// down, so that blocked processes unwind their stacks and exit.
type stopSentinel struct{}

// procFailure wraps a panic raised inside a process so the kernel can
// surface it from Run. driving distinguishes a panic in the process's
// own code from one raised by an event callback the process happened to
// be executing as the event-loop driver (see block) — the latter is not
// the process's fault.
type procFailure struct {
	proc    string
	val     any
	driving bool
}

func (f procFailure) Error() string {
	if f.driving {
		return fmt.Sprintf("sim: event callback panicked (while process %q drove the event loop): %v", f.proc, f.val)
	}
	return fmt.Sprintf("sim: process %q panicked: %v", f.proc, f.val)
}

// Proc is a simulated process: a function running on its own coroutine
// that advances virtual time by blocking on kernel primitives. The
// kernel is the coroutine's only resumer. All Proc methods must be
// called from within the process's own function.
type Proc struct {
	k    *Kernel
	id   int
	name string
	fn   func(*Proc)

	// co is the pooled coroutine running fn. It is taken from the free
	// list at the process's first resume and returned once fn has ended.
	co *coro

	// driving is true while this process is inside the kernel's drive
	// loop (executing other components' events); it attributes an
	// escaping event-callback panic to the callback rather than the
	// process.
	driving bool

	// parkSlot is the process's index in the kernel's parked set plus
	// one, or zero while it is not parked on a signal.
	parkSlot int

	// dead marks a process whose function has ended (normally or by
	// panic). Teardown must never resume a dead process. A live run
	// never wakes a dead process (wake events are consumed by the block
	// that scheduled them), but a process that fails while driving can
	// leave stale wake state behind for teardown to encounter.
	dead bool

	// wreg is the reusable wait registration for plain (untimed) signal
	// waits. A process blocks on at most one signal at a time, and a
	// plain wait's registration leaves the signal's waiter list exactly
	// when the process is woken, so one embedded registration per process
	// suffices — Wait allocates nothing. Timed waits (WaitTimeout) use a
	// fresh registration because their timer event can outlive the wait.
	wreg waitReg

	// charges[:nCharges] are the durations recorded by Charge and not yet
	// paid. While settle's chain is in flight, link indexes the next one
	// to schedule.
	charges  [maxCharges]Duration
	nCharges int
	link     int
}

// maxCharges is how many charges a process can run ahead by. A Charge
// past it settles the ones before it first.
const maxCharges = 8

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time, after paying any pending
// charges.
func (p *Proc) Now() Time { return p.k.Now() }

// Spawn creates a process running fn, starting at the current virtual
// time (after already-queued events at this instant).
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	k.settleAhead()
	k.nextProc++
	p := &Proc{k: k, id: k.nextProc, name: name, fn: fn}
	k.scheduleWake(k.now, p)
	return p
}

// run executes the process's function on its coroutine. A panic is
// recorded as the run's failure, except the stop sentinel, which is how
// teardown unwinds a blocked process.
func (p *Proc) run() {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if _, isStop := r.(stopSentinel); !isStop {
				k.fail(procFailure{proc: p.name, val: r, driving: p.driving})
			}
		}
		// Charges recorded on the way out of a panic are never paid.
		p.nCharges = 0
		if k.ahead == p {
			k.ahead = nil
		}
		p.dead = true
		// A panic that unwound through a blocking primitive (possibly
		// while this process was driving another component's event)
		// can leave the process still registered as parked; teardown
		// must not try to resume it.
		k.unpark(p)
	}()
	p.fn(p)
	p.Settle()
}

// block gives up control until the process's wake. The blocking process
// drives the event loop itself: when its own wake comes up next
// (driveSelf) it just keeps running; otherwise it yields to the kernel,
// which resumes whichever process drive handed control to, or returns
// to the Run caller when the run is complete. A process resumed by
// teardown (or blocking during it) unwinds with the stop sentinel.
func (p *Proc) block() {
	k := p.k
	if k.stopped {
		panic(stopSentinel{})
	}
	p.driving = true
	res := k.drive(p)
	p.driving = false
	if res == driveSelf {
		return
	}
	p.co.yield(struct{}{})
	if k.stopped {
		panic(stopSentinel{})
	}
}

// Sleep advances the process's local time by d, yielding to other
// activities in between. Sleep(0) yields and resumes after other events
// already scheduled at this instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.nCharges > 0 {
		// The sleep is the last link of the pending chain.
		p.Charge(d)
		p.Settle()
		return
	}
	// Hand-inlined scheduleWake: Sleep is the hottest schedule site in
	// process-heavy simulations.
	k := p.k
	t := k.now.Add(d)
	if t < k.now {
		panic("sim: sleep overflows the clock")
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, arg: p}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
	p.block()
}

// SleepUntil blocks the process until absolute time t. If t is not after
// the current time, it still yields once.
func (p *Proc) SleepUntil(t Time) {
	p.Settle()
	if t < p.k.now {
		t = p.k.now
	}
	p.k.scheduleWake(t, p)
	p.block()
}

// Charge advances the process's local time by d without yielding: it
// records d, and the process pays it (and any charges recorded before
// it) the next time it settles. It is the deferred form of Sleep for
// pure computation. The code a process runs between Charge and its next
// settle may touch only the process's own state; anything it shares
// with other processes or devices must be read or written after a
// settle.
//
// Settling is automatic at every blocking primitive (Sleep, SleepUntil,
// Wait, WaitTimeout, WaitFor, Use), at every clock read (Proc.Now,
// Kernel.Now), at every schedule or waiter-list change made while the
// process is ahead (At, After, Spawn, Pulse, Notify, Resource
// reservations), and when the process function returns; Settle does it
// explicitly. A settle schedules the pending charges as a chain of
// events: the first at now+d0 with the sequence number Sleep(d0) would
// have taken, each intermediate link an event callback that schedules
// the next, the last the process's ordinary wake. Because nothing else
// can schedule between the charges, every link takes exactly the
// (time, sequence) place of the Sleep wake it replaces, so event order,
// EventsRun and every output are those of one Sleep per charge, without
// the process switch per charge.
func (p *Proc) Charge(d Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	if p.nCharges == maxCharges {
		p.Settle()
	}
	p.charges[p.nCharges] = d
	p.nCharges++
	p.k.ahead = p
}

// Settle pays the process's pending charges, blocking until virtual
// time has caught up with it: it schedules them as an event chain and
// blocks until the last link wakes the process. Code that reads or
// writes state shared with other processes or devices calls it first
// (see Charge).
func (p *Proc) Settle() {
	n := p.nCharges
	if n == 0 {
		return
	}
	k := p.k
	k.ahead = nil
	t := k.now.Add(p.charges[0])
	if n == 1 {
		p.nCharges = 0
		k.scheduleWake(t, p)
	} else {
		p.link = 1
		k.AtArg(t, chargeStep, p)
	}
	p.block()
}

// chargeStep is an intermediate link of a settle chain: it schedules
// the next link at the instant the process, resumed here, would have
// slept from. During teardown it wakes the process instead, which
// unwinds exactly as it would from a Sleep.
func chargeStep(a any) {
	p := a.(*Proc)
	k := p.k
	if k.stopped {
		p.nCharges = 0
		k.requestWake(p)
		return
	}
	t := k.now.Add(p.charges[p.link])
	p.link++
	if p.link == p.nCharges {
		p.nCharges = 0
		k.scheduleWake(t, p)
		return
	}
	k.AtArg(t, chargeStep, p)
}

// park records the process as signal-blocked and yields. The waker is
// responsible for removing it from the parked set before resuming.
func (p *Proc) park() {
	k := p.k
	k.parked = append(k.parked, p)
	p.parkSlot = len(k.parked)
	p.block()
}

// coro is a pooled coroutine that runs process functions one after
// another: it runs one, yields idle, and waits in the free list for the
// next. Pooling matters because creating an iter.Pull coroutine costs
// about ten allocations and a goroutine, and process-dense simulations
// spawn hundreds of processes per run.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process whose function the coroutine runs
}

// maxIdleCoros bounds the free list. Coroutines released beyond it are
// stopped, so a run with tens of thousands of processes does not pin as
// many idle stacks after it ends.
const maxIdleCoros = 1024

// coroPool is the package-level free list. It is shared by every kernel
// and guarded by a mutex, because shard kernels and sweep workers run
// on several goroutines at once. It is not a sync.Pool: that drops
// entries at garbage collection without stopping them, which would
// leak their goroutines.
var coroPool struct {
	sync.Mutex
	idle []*coro
}

// getCoro takes an idle coroutine from the free list, or creates one.
func getCoro() *coro {
	coroPool.Lock()
	if n := len(coroPool.idle); n > 0 {
		c := coroPool.idle[n-1]
		coroPool.idle[n-1] = nil
		coroPool.idle = coroPool.idle[:n-1]
		coroPool.Unlock()
		return c
	}
	coroPool.Unlock()
	c := new(coro)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// putCoro returns an idle coroutine to the free list, stopping it
// instead when the list is full.
func putCoro(c *coro) {
	c.p = nil
	coroPool.Lock()
	keep := len(coroPool.idle) < maxIdleCoros
	if keep {
		coroPool.idle = append(coroPool.idle, c)
	}
	coroPool.Unlock()
	if !keep {
		c.stop()
	}
}

// loop is the coroutine body: run the assigned process's function, then
// yield idle until the kernel assigns the next or stops the coroutine.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}
