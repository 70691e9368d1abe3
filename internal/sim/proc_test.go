package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// idleCoros reports the free list's length.
func idleCoros() int {
	coroPool.Lock()
	defer coroPool.Unlock()
	return len(coroPool.idle)
}

// TestCoroutineLifecycleBounded runs many Run generations whose
// processes end every way a process can: by returning, parked forever
// on a signal, asleep past the horizon, and failed by an event callback
// that panicked while the process was driving the event loop. Each
// process's coroutine must go back to the free list or be stopped, so
// neither the goroutine count nor the free list grows past the bound.
func TestCoroutineLifecycleBounded(t *testing.T) {
	base := runtime.NumGoroutine() - idleCoros()
	const horizon = Time(100 * Microsecond)
	for gen := 0; gen < 1000; gen++ {
		k := NewKernel()
		never := NewSignal(k, "never")
		finished, unwound := 0, 0
		for i := 0; i < 2; i++ {
			k.Spawn("finish", func(p *Proc) {
				p.Sleep(10 * Microsecond)
				finished++
			})
			k.Spawn("park", func(p *Proc) {
				defer func() { unwound++ }()
				p.Wait(never)
			})
			k.Spawn("sleep", func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(Second)
			})
		}
		// The callback is queued ahead of the driver's wake at 50us, so
		// it runs inside the driver's drive loop and fails the run.
		k.At(Time(50*Microsecond), func() { panic("callback boom") })
		k.Spawn("driver", func(p *Proc) {
			for p.Now() < Time(60*Microsecond) {
				p.Sleep(Microsecond)
			}
		})

		err := k.Run(horizon)
		if err == nil || !strings.Contains(err.Error(), "event callback panicked") {
			t.Fatalf("generation %d: want a driving-callback failure, got %v", gen, err)
		}
		if finished != 2 || unwound != 4 {
			t.Fatalf("generation %d: finished %d/2, unwound %d/4", gen, finished, unwound)
		}
		if n := idleCoros(); n > maxIdleCoros {
			t.Fatalf("generation %d: free list holds %d coroutines, bound %d", gen, n, maxIdleCoros)
		}
		if n := runtime.NumGoroutine() - base; n > maxIdleCoros {
			t.Fatalf("generation %d: %d goroutines above the baseline, bound %d", gen, n, maxIdleCoros)
		}
	}
}

// TestCoroutineFreeListOverflow releases more coroutines than the free
// list keeps: the excess must be stopped, not left parked.
func TestCoroutineFreeListOverflow(t *testing.T) {
	base := runtime.NumGoroutine() - idleCoros()
	k := NewKernel()
	never := NewSignal(k, "never")
	for i := 0; i < maxIdleCoros+64; i++ {
		k.Spawn("park", func(p *Proc) { p.Wait(never) })
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := idleCoros(); n != maxIdleCoros {
		t.Fatalf("free list holds %d coroutines, want the bound %d", n, maxIdleCoros)
	}
	if n := runtime.NumGoroutine() - base; n > maxIdleCoros {
		t.Fatalf("%d goroutines above the baseline after Run, bound %d", n, maxIdleCoros)
	}
}

// TestCoroutinePoolConcurrentKernels runs independent kernels on
// several goroutines at once, as sweep workers do, so the shared free
// list is taken from and refilled concurrently; each kernel must still
// see exactly its own processes' results.
func TestCoroutinePoolConcurrentKernels(t *testing.T) {
	const workers, runs, procs = 4, 50, 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for r := 0; r < runs; r++ {
				k := NewKernel()
				s := NewSignal(k, "s")
				woke := 0
				for i := 0; i < procs; i++ {
					k.Spawn("w", func(p *Proc) {
						p.Wait(s)
						woke++
					})
				}
				k.AtArg(Time(Microsecond), pulseArg, s)
				if err := k.RunAll(); err != nil {
					errs <- err
					return
				}
				if woke != procs {
					errs <- fmt.Errorf("run %d: %d of %d waiters woke", r, woke, procs)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := idleCoros(); n > maxIdleCoros {
		t.Fatalf("free list holds %d coroutines, bound %d", n, maxIdleCoros)
	}
}

// TestStepWindowsOnFreshGoroutines drives every Step window from a new
// goroutine, as a shard runtime may: a process parked in one window
// must resume correctly in a later window, and Finish on yet another
// goroutine must unwind it.
func TestStepWindowsOnFreshGoroutines(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s")
	var woke []Time
	unwound := false
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			p.Wait(s)
			woke = append(woke, p.Now())
		}
	})
	for i := 1; i <= 3; i++ {
		k.AtArg(Time(i)*Time(Microsecond), pulseArg, s)
	}
	onFreshGoroutine := func(f func() error) {
		errc := make(chan error)
		go func() { errc <- f() }()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for h := Time(500 * Nanosecond); h < Time(4*Microsecond); h += Time(Microsecond) {
		onFreshGoroutine(func() error { return k.Step(h) })
	}
	onFreshGoroutine(k.Finish)
	want := []Time{Time(Microsecond), Time(2 * Microsecond), Time(3 * Microsecond)}
	if len(woke) != len(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke at %v, want %v", woke, want)
		}
	}
	if !unwound {
		t.Fatal("Finish did not unwind the parked process")
	}
}

// TestShardProcParksAcrossWindows parks a process on one shard and
// wakes it from another shard's post several windows later. The wake
// runs on the destination shard's worker goroutine, and teardown
// unwinds the re-parked process from the Run caller's goroutine.
func TestShardProcParksAcrossWindows(t *testing.T) {
	const window = Duration(Microsecond)
	g := NewShardGroup(2, window)
	k1 := g.Shard(1).Kernel()
	s := NewSignal(k1, "s")
	var woke []Time
	unwound := false
	k1.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(s)
		woke = append(woke, p.Now())
		p.Sleep(3 * window)
		woke = append(woke, p.Now())
		p.Wait(s) // never pulsed again
	})
	g.Shard(0).Kernel().At(0, func() {
		g.Shard(0).Post(1, Time(5*window), pulseArg, s)
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != Time(5*window) || woke[1] != Time(8*window) {
		t.Fatalf("waiter woke at %v, want [%v %v]", woke, Time(5*window), Time(8*window))
	}
	if !unwound {
		t.Fatal("teardown did not unwind the re-parked process")
	}
	if g.Windows() < 3 {
		t.Fatalf("run used %d windows, want the wakes in separate windows", g.Windows())
	}
}
