package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// chargeRun is one run of the interleaving scenario: a worker process
// that pays rounds of host-style charges and then looks at the world,
// racing a competing process and a callback ticker that act at the same
// instants. sleep selects the reference form (one Sleep per charge).
type chargeRun struct {
	log    []string
	events uint64
	end    Time
}

func runChargeScenario(rounds [][]Duration, sleep bool) chargeRun {
	k := NewKernel()
	var r chargeRun
	logf := func(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }
	k.Spawn("worker", func(p *Proc) {
		for i, round := range rounds {
			for _, d := range round {
				if sleep {
					p.Sleep(d)
				} else {
					p.Charge(d)
				}
			}
			logf("worker round %d at %v", i, p.Now())
		}
	})
	// The competitor sleeps on the same 50ns grid and, at every wake,
	// schedules an echo 100ns ahead, so same-instant ties with the
	// worker's links are decided by sequence number.
	k.Spawn("competitor", func(p *Proc) {
		for i := 0; i < 60; i++ {
			p.Sleep(Duration(50*(1+i%3)) * Nanosecond)
			now := p.Now()
			logf("competitor %d at %v", i, now)
			k.At(now.Add(100*Nanosecond), func() { logf("echo %d at %v", i, k.Now()) })
		}
	})
	for t := Time(0); t < Time(4*Microsecond); t += Time(50 * Nanosecond) {
		k.At(t, func() { logf("tick at %v", k.Now()) })
	}
	if err := k.RunAll(); err != nil {
		panic(err)
	}
	r.events, r.end = k.EventsRun(), k.Now()
	return r
}

// TestChargeChainMatchesSleeps: a chain of charges interleaved with a
// competing process and callbacks that schedule events at the same
// instants is event-for-event equal to plain Sleeps: the same observed
// order, the same EventsRun and the same final time. Rounds are random
// (seeded) over a coarse grid, so ties are common, zero charges occur,
// and some rounds overflow the pending buffer.
func TestChargeChainMatchesSleeps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rounds := make([][]Duration, 12)
		for i := range rounds {
			for n := 1 + rng.Intn(2*maxCharges); n > 0; n-- {
				rounds[i] = append(rounds[i], Duration(rng.Intn(4))*50*Nanosecond)
			}
		}
		want := runChargeScenario(rounds, true)
		got := runChargeScenario(rounds, false)
		if got.events != want.events || got.end != want.end {
			t.Fatalf("trial %d: charges ran %d events to %v, sleeps %d to %v",
				trial, got.events, got.end, want.events, want.end)
		}
		if !slices.Equal(got.log, want.log) {
			for i := range min(len(got.log), len(want.log)) {
				if got.log[i] != want.log[i] {
					t.Fatalf("trial %d: observations diverge at %d: %q, want %q", trial, i, got.log[i], want.log[i])
				}
			}
			t.Fatalf("trial %d: %d observations, want %d", trial, len(got.log), len(want.log))
		}
	}
}

// settleWorld is what a settle-point case can touch besides the clock:
// a signal s pulsed at d/2 and 2d, a resource busy from d/4 to d/2, a
// flag set at d/2, and a waiter that waits on sig from d/2 and records
// when it woke.
type settleWorld struct {
	k      *Kernel
	s, sig *Signal
	r      *Resource
	flag   bool
	woke   Time
}

// TestChargeSettlePoints: every automatic settle point pays the pending
// charges before it acts. Each case charges d, then uses one primitive
// whose outcome depends on the instant it really runs at; the world
// changes at d/2, so a primitive that acted at the stale instant would
// observe something else.
func TestChargeSettlePoints(t *testing.T) {
	const d = Duration(Microsecond)
	half := Time(d / 2)
	cases := []struct {
		name string
		body func(p *Proc, w *settleWorld) Time // returns what it observed
		want Time
	}{
		{"Proc.Now", func(p *Proc, w *settleWorld) Time { return p.Now() }, Time(d)},
		{"Kernel.Now", func(p *Proc, w *settleWorld) Time { return w.k.Now() }, Time(d)},
		{"Settle", func(p *Proc, w *settleWorld) Time {
			p.Settle()
			return w.k.now
		}, Time(d)},
		{"AtArg", func(p *Proc, w *settleWorld) Time {
			w.k.AtArg(Time(d), func(any) {}, nil)
			return w.k.now
		}, Time(d)},
		{"After", func(p *Proc, w *settleWorld) Time {
			var at Time
			w.k.After(0, func() { at = w.k.now })
			p.Sleep(d)
			return at
		}, Time(d)},
		{"AfterArg", func(p *Proc, w *settleWorld) Time {
			var at Time
			w.k.AfterArg(0, func(any) { at = w.k.now }, nil)
			p.Sleep(d)
			return at
		}, Time(d)},
		{"Spawn", func(p *Proc, w *settleWorld) Time {
			var at Time
			w.k.Spawn("child", func(c *Proc) { at = c.Now() })
			p.Sleep(d)
			return at
		}, Time(d)},
		{"Sleep", func(p *Proc, w *settleWorld) Time {
			p.Sleep(d)
			return w.k.now
		}, Time(2 * d)},
		{"SleepUntil", func(p *Proc, w *settleWorld) Time {
			p.SleepUntil(half)
			return w.k.now
		}, Time(d)},
		{"Tracef", func(p *Proc, w *settleWorld) Time {
			var b strings.Builder
			w.k.EnableTrace(&b)
			w.k.Tracef("test", "line")
			if !strings.HasPrefix(strings.TrimSpace(b.String()), "1.000 us") {
				return -1
			}
			return w.k.now
		}, Time(d)},
		// A wait registered at the stale instant would wake at d/2.
		{"Wait", func(p *Proc, w *settleWorld) Time {
			p.Wait(w.s)
			return w.k.now
		}, Time(2 * d)},
		{"WaitTimeout", func(p *Proc, w *settleWorld) Time {
			if p.WaitTimeout(w.s, d/2) {
				return -1
			}
			return w.k.now
		}, Time(d + d/2)},
		{"WaitFor", func(p *Proc, w *settleWorld) Time {
			p.WaitFor(w.s, func() bool { return w.flag })
			return w.k.now
		}, Time(d)},
		{"Notify", func(p *Proc, w *settleWorld) Time {
			var at Time
			var reg Waiter
			w.s.Notify(&reg, func(any) { at = w.k.now }, nil)
			p.Sleep(2 * d)
			return at
		}, Time(2 * d)},
		// A pulse made at the stale instant would find no waiter.
		{"Pulse", func(p *Proc, w *settleWorld) Time {
			w.sig.Pulse()
			p.Sleep(d)
			return w.woke
		}, Time(d)},
		// A reservation made at the stale instant would queue behind
		// the d/4..d/2 booking.
		{"Use", func(p *Proc, w *settleWorld) Time { return p.Use(w.r, Nanosecond) }, Time(d)},
		{"Reserve", func(p *Proc, w *settleWorld) Time {
			start, _ := w.r.Reserve(Nanosecond)
			return start
		}, Time(d)},
		{"ReserveAt", func(p *Proc, w *settleWorld) Time {
			start, _ := w.r.ReserveAt(0, Nanosecond)
			return start
		}, Time(d)},
		// The d/4 booking is a quarter of the time elapsed at d.
		{"Utilization", func(p *Proc, w *settleWorld) Time {
			if w.r.Utilization() != 0.25 {
				return -1
			}
			return w.k.now
		}, Time(d)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			w := &settleWorld{k: k, s: NewSignal(k, "s"), sig: NewSignal(k, "sig"), r: NewResource(k, "r")}
			k.At(half, func() { w.flag = true })
			k.At(half, w.s.Pulse)
			k.At(Time(2*d), w.s.Pulse)
			k.At(Time(d/4), func() { w.r.Reserve(d / 4) })
			k.Spawn("waiter", func(p *Proc) {
				p.SleepUntil(half)
				p.Wait(w.sig)
				w.woke = p.Now()
			})
			got := Time(-2)
			k.Spawn("p", func(p *Proc) {
				p.Charge(d)
				got = c.body(p, w)
			})
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("observed %v, want %v", got, c.want)
			}
		})
	}
}

// TestChargeSettlesOnReturn: charges a process function ends with are
// still paid, exactly as the Sleeps they replace.
func TestChargeSettlesOnReturn(t *testing.T) {
	for _, sleep := range []bool{true, false} {
		k := NewKernel()
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < 3; i++ {
				if sleep {
					p.Sleep(Microsecond)
				} else {
					p.Charge(Microsecond)
				}
			}
		})
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if k.Now() != Time(3*Microsecond) || k.EventsRun() != 4 || k.ahead != nil {
			t.Fatalf("sleep=%v: ended at %v after %d events (ahead %v), want 3us after 4",
				sleep, k.Now(), k.EventsRun(), k.ahead)
		}
	}
}

// TestChargeBufferFullSettles: a charge past the pending buffer settles
// the ones before it first, so nothing is dropped and the clock moves
// only when the buffer overflows.
func TestChargeBufferFullSettles(t *testing.T) {
	k := NewKernel()
	var seen []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 2*maxCharges+3; i++ {
			p.Charge(Nanosecond)
			seen = append(seen, k.now)
		}
		seen = append(seen, p.Now())
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, at := range seen[:len(seen)-1] {
		if want := Time(i / maxCharges * maxCharges * int(Nanosecond)); at != want {
			t.Fatalf("clock after charge %d is %v, want %v", i+1, at, want)
		}
	}
	if last := seen[len(seen)-1]; last != Time((2*maxCharges+3)*int(Nanosecond)) {
		t.Fatalf("settled at %v, want %v", last, Time((2*maxCharges+3)*int(Nanosecond)))
	}
}

// TestChargeHorizonUnwinds: a run whose horizon falls inside a settle
// chain unwinds the process exactly as it would from a Sleep (same
// events, same final clock), runs none of its code past the settle, and
// returns its coroutine.
func TestChargeHorizonUnwinds(t *testing.T) {
	base := runtime.NumGoroutine() - idleCoros()
	for _, sleep := range []bool{true, false} {
		for gen := 0; gen < 200; gen++ {
			k := NewKernel()
			unwound, reached := false, false
			p := k.Spawn("p", func(p *Proc) {
				defer func() { unwound = true }()
				for i := 0; i < 6; i++ {
					if sleep {
						p.Sleep(Microsecond)
					} else {
						p.Charge(Microsecond)
					}
				}
				_ = p.Now()
				reached = true
			})
			if err := k.Run(Time(3500 * Nanosecond)); err != nil {
				t.Fatal(err)
			}
			if !unwound || reached || !p.dead || p.co != nil || k.ahead != nil {
				t.Fatalf("sleep=%v: unwound=%v reached=%v dead=%v coroutine held=%v ahead=%v",
					sleep, unwound, reached, p.dead, p.co != nil, k.ahead != nil)
			}
			if k.EventsRun() != 4 || k.now != Time(3*Microsecond) {
				t.Fatalf("sleep=%v: %d events to %v, want 4 to 3us", sleep, k.EventsRun(), k.now)
			}
		}
	}
	if n := runtime.NumGoroutine() - base; n > maxIdleCoros {
		t.Fatalf("%d goroutines above the baseline, bound %d", n, maxIdleCoros)
	}
}

// TestChargeAllocs: recording charges and settling them as a chain
// allocates nothing.
func TestChargeAllocs(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	rounds := 0
	k.Spawn("p", func(p *Proc) {
		for {
			p.Wait(s)
			p.Charge(100 * Nanosecond)
			p.Charge(0)
			p.Charge(250 * Nanosecond)
			_ = p.Now()
			p.Charge(Microsecond)
			p.Settle()
			rounds++
		}
	})
	run := func() {
		if err := k.Step(MaxTime); err != nil {
			t.Fatal(err)
		}
	}
	run() // the process parks in its first Wait
	step := func() {
		s.Pulse()
		run()
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("charge and settle allocated %.1f times per round", allocs)
	}
	if rounds != 1002 {
		t.Fatalf("%d rounds ran, want 1002", rounds)
	}
	if err := k.Finish(); err != nil {
		t.Fatal(err)
	}
}
