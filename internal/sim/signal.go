package sim

// Signal is a broadcast condition variable. A process calls Wait (or
// WaitTimeout) to block, and an event-driven component registers a
// callback with Notify; any code — event callbacks, devices, or
// processes — calls Pulse to wake every current waiter. Wakes are
// scheduled as events at the current instant, in registration order,
// preserving deterministic ordering. A Signal has no memory: a Pulse
// with no waiters is lost, so callers must re-check their condition
// around Wait or Notify (the standard condition-variable discipline).
type Signal struct {
	k       *Kernel
	name    string
	waiters []*waitReg
	pulses  uint64
}

// waitReg tracks one waiter: a blocked process, or the Notify callback
// cb when set. fired prevents a double resume when a timeout and a
// pulse land at the same instant.
type waitReg struct {
	p        *Proc
	cb       *Waiter
	fired    bool
	timedOut bool
}

// Waiter is caller-owned storage for one Notify registration, so that
// registering allocates nothing. A component that waits on one signal
// at a time embeds a single Waiter and reuses it.
type Waiter struct {
	reg waitReg
	fn  func(any)
	arg any
}

// NewSignal creates a signal attached to k. The name is used in traces.
func NewSignal(k *Kernel, name string) *Signal {
	return &Signal{k: k, name: name}
}

// Pulses reports how many times the signal has been pulsed (for tests and
// stats).
func (s *Signal) Pulses() uint64 { return s.pulses }

// Pulse wakes every current waiter of s: each blocked process resumes,
// and each Notify callback runs, at the current virtual time, in the
// order they registered. A callback's event takes exactly the queue
// position a process wake would have taken.
func (s *Signal) Pulse() {
	s.k.settleAhead()
	s.pulses++
	if len(s.waiters) == 0 {
		return
	}
	// Detach the list but keep its backing array: waiters resume via
	// scheduled events, never during this loop, so nothing can append
	// while we iterate, and truncating (instead of dropping to nil)
	// lets future Waits register without reallocating.
	regs := s.waiters
	s.waiters = regs[:0]
	for _, r := range regs {
		if r.fired {
			continue
		}
		r.fired = true
		if w := r.cb; w != nil {
			s.k.AtArg(s.k.now, w.fn, w.arg)
			continue
		}
		s.k.unpark(r.p)
		s.k.scheduleWake(s.k.now, r.p)
	}
	for i := range regs {
		regs[i] = nil // release registration references
	}
}

// pulseArg is the event callback for a deferred pulse.
func pulseArg(a any) { a.(*Signal).Pulse() }

// PulseAfter schedules a Pulse d from now, without allocating a closure.
// Layers use it to arm wakeups (e.g. retransmission deadlines).
func (s *Signal) PulseAfter(d Duration) { s.k.AfterArg(d, pulseArg, s) }

// Notify registers fn(arg) to run once, as an event at the instant of
// the next Pulse of s. It is the callback form of Wait, for components
// that run as chains of events rather than as processes: w is the
// registration's storage and must not already be registered. Like Wait,
// Notify does not see pulses that came before it.
func (s *Signal) Notify(w *Waiter, fn func(any), arg any) {
	s.k.settleAhead()
	w.fn, w.arg = fn, arg
	w.reg = waitReg{cb: w}
	s.waiters = append(s.waiters, &w.reg)
}

// Wait blocks the calling process until the next Pulse. It reuses the
// process's embedded registration, so waiting allocates nothing: an
// untimed registration leaves the waiter list precisely when the process
// is woken (Pulse detaches the whole list before scheduling resumes), so
// it can never alias a later wait.
func (p *Proc) Wait(s *Signal) {
	p.Settle()
	reg := &p.wreg
	reg.p = p
	reg.fired = false
	reg.timedOut = false
	s.waiters = append(s.waiters, reg)
	p.park()
}

// WaitTimeout blocks until the next Pulse or until d elapses, whichever
// comes first. It reports true if the signal fired and false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Duration) bool {
	p.Settle()
	reg := &waitReg{p: p}
	s.waiters = append(s.waiters, reg)
	k := p.k
	k.After(d, func() {
		if reg.fired {
			return // pulsed first (or simultaneously, pulse wins)
		}
		reg.fired = true
		reg.timedOut = true
		k.unpark(p)
		k.requestWake(p)
	})
	p.park()
	if reg.timedOut {
		// Lazily drop the stale registration so the waiter list does not
		// accumulate garbage under repeated timeouts.
		for i, r := range s.waiters {
			if r == reg {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		return false
	}
	return true
}

// WaitFor repeatedly waits on s until cond() is true. cond is checked
// before the first wait, so a satisfied condition never blocks.
func (p *Proc) WaitFor(s *Signal, cond func() bool) {
	p.Settle()
	for !cond() {
		p.Wait(s)
	}
}
