// Package lcp implements the LANai Control Program: the firmware loop the
// paper analyzes in Section 4.2 (Figure 2) and refines through Sections
// 4.3-4.5.
//
// The LCP charges LANai instruction time per step of the loop. It runs
// as a chain of kernel events, not as a simulated process: each point
// where the firmware waits in Figure 2 (an instruction charge, a DMA
// setup, a transfer's completion, or the idle wait for work) is one step
// event scheduled at the instant the wait ends, and the loop resumes in
// that event's callback. The step events take the same (time, sequence)
// places in the kernel queue that a process's wakes would, so the model
// is event-for-event the firmware loop, without a coroutine switch per
// step.
//
// Two loop organizations are provided, matching Figure 2: baseline
// (alternate one send, one receive per trip) and streamed (consolidated
// checks; drain sends, then drain receives). On top of the loop, options
// select where outbound frames come from (the host send queue for
// hybrid, host-DMA pulls for all-DMA, or an on-card synthetic generator
// for the LANai-to-LANai experiments), whether received frames are DMAed
// onward to the host, whether the LCP performs per-packet interpretation
// (the Figure 7 switch() experiment), and whether host-bound packets are
// aggregated into single DMA transfers.
package lcp

import (
	"fm/internal/lanai"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Source selects where the LCP obtains outbound frames.
type Source int

const (
	// FromSendQueue: the host PIO-copies frames directly into the LANai
	// send queue (the hybrid architecture, Section 4.3).
	FromSendQueue Source = iota
	// FromHostDMA: frames are staged in the host DMA region and pulled
	// by the LANai's host-DMA engine (the all-DMA architecture).
	FromHostDMA
	// Synthetic: frames are generated from a fixed on-card buffer (the
	// Figure 3 LANai-to-LANai experiments; "never getting it to the
	// hosts").
	Synthetic
)

// Options configures one control program instance.
type Options struct {
	// Streamed selects the Figure 2(b) loop; false selects 2(a).
	Streamed bool
	// Interpret adds the per-packet switch() cost in the receive inner
	// loop (Section 4.4, Figure 7).
	Interpret bool
	// Source selects the outbound frame source.
	Source Source
	// HostDelivery routes received frames into the LANai receive queue
	// and DMAs them onward to the host receive queue. When false,
	// received frames are handed to OnReceive (Fig. 3 mode).
	HostDelivery bool
	// Aggregate allows multiple received frames per host DMA transfer
	// (Section 4.4: matching queue structures "allows short messages to
	// be aggregated in DMA operations"). Ignored unless HostDelivery.
	Aggregate bool
	// ExtraInstrPerPacket charges additional LANai instructions on every
	// send and receive, modeling the Myrinet API's heavier firmware.
	ExtraInstrPerPacket int
	// OnReceive consumes frames in non-HostDelivery mode. It runs inside
	// the receive step's event at zero cost; drivers use it for LANai-level
	// ping-pong and counting. The frame is recycled to the fabric's
	// packet pool when OnReceive returns: it must not retain the packet
	// or its payload (copy what it needs, like an FM handler).
	OnReceive func(p *myrinet.Packet)
	// SynthDst is the destination node for synthetic frames.
	SynthDst int
}

// Stats exposes per-LCP activity counters.
type Stats struct {
	Loops     uint64 // passes around the main loop
	IdleWakes uint64 // times the loop found nothing and slept
}

// step names the wait point a control program is parked at: the step
// event that ends the wait resumes the loop there.
type step uint8

const (
	atTop          step = iota // top of a pass, after start or an idle recheck
	atSendCharged              // send: loop instructions charged
	atPullSetup                // all-DMA: descriptor decoded, pull set up
	atPulled                   // all-DMA: frame pulled into card memory
	atInjectSetup              // outgoing-channel DMA set up
	atInjected                 // the frame's tail has left the card
	atRecvCharged              // receive: loop instructions charged
	atRecvSetup                // receive: incoming engine re-armed
	atDeliverSetup             // host-DMA setup charged
	atWoken                    // idle: work arrived
)

// LCP is a running control program.
type LCP struct {
	d     *lanai.Device
	o     Options
	stats Stats

	at       step              // where the next step event resumes the loop
	progress bool              // the current pass has serviced something
	pkt      *myrinet.Packet   // the frame being sent
	idle     sim.Waiter        // registration on d.Work while idle
	batch    []*myrinet.Packet // host-DMA staging scratch, reused per batch
}

// Start starts the control program on d.
func Start(d *lanai.Device, o Options) *LCP {
	return StartAt(new(LCP), d, o)
}

// StartAt is Start in caller-provided storage (the cluster layer's
// per-node stack arena). The loop's first pass runs at the current
// virtual time, after events already queued at this instant.
func StartAt(l *LCP, d *lanai.Device, o Options) *LCP {
	*l = LCP{d: d, o: o}
	d.K.AtArg(d.K.Now(), resume, l)
	return l
}

// Stats returns a copy of the loop counters.
func (l *LCP) Stats() Stats { return l.stats }

// resume is the callback of every step event.
func resume(a any) { a.(*LCP).resume() }

// wait parks the loop at next for d of virtual time.
func (l *LCP) wait(d sim.Duration, next step) {
	l.at = next
	l.d.K.AfterArg(d, resume, l)
}

// waitUntil parks the loop at next until absolute time t (at once, in
// queue order, if t has passed).
func (l *LCP) waitUntil(t sim.Time, next step) {
	k := l.d.K
	if t < k.Now() {
		t = k.Now()
	}
	l.at = next
	k.AtArg(t, resume, l)
}

// sendReady reports whether the send channel has work.
func (l *LCP) sendReady() bool {
	switch l.o.Source {
	case FromSendQueue:
		return !l.d.SendQ.Empty()
	case FromHostDMA:
		return !l.d.HostOutQ.Empty()
	default:
		return l.d.SyntheticPending()
	}
}

// recvReady reports whether a frame is available on the receive channel
// and there is room to put it.
func (l *LCP) recvReady() bool {
	if !l.d.RxAvailable() {
		return false
	}
	if l.o.HostDelivery && l.d.RecvQ.Full() {
		return false
	}
	return true
}

// deliverReady reports whether a host DMA can be issued now.
func (l *LCP) deliverReady() bool {
	d := l.d
	return l.o.HostDelivery && !d.RecvQ.Empty() &&
		d.HostRecvFree() > 0 && d.HostDMAFreeAt() <= d.K.Now()
}

// pass starts one trip around the main loop (Figure 2).
func (l *LCP) pass() {
	l.stats.Loops++
	l.progress = false
	l.sends()
}

// sends starts a send step if the send channel has work, and otherwise
// moves on to the receive channel. A send step charges loop
// instructions, obtains the frame, sets up the outgoing-channel DMA,
// and spools the frame out.
func (l *LCP) sends() {
	if !l.sendReady() {
		l.recvs()
		return
	}
	P := l.d.P
	instr := P.LCPStreamedSendInstr
	if !l.o.Streamed {
		instr = P.LCPBaselineSendInstr
	}
	l.wait(P.Instr(instr+l.o.ExtraInstrPerPacket), atSendCharged)
}

// recvs starts a receive step if a frame is waiting and there is room
// for it, and otherwise moves on to host delivery. A receive step
// charges loop instructions (plus interpretation if configured),
// re-arms the incoming engine, and moves the frame to the receive queue
// or the synthetic consumer.
func (l *LCP) recvs() {
	if !l.recvReady() {
		l.deliver()
		return
	}
	P := l.d.P
	instr := P.LCPStreamedRecvInstr
	if !l.o.Streamed {
		instr = P.LCPBaselineRecvInstr
	}
	if l.o.Interpret {
		instr += P.LCPInterpretInstr
	}
	l.wait(P.Instr(instr+l.o.ExtraInstrPerPacket), atRecvCharged)
}

// deliver starts a host-DMA delivery if one can be issued, and otherwise
// ends the pass.
func (l *LCP) deliver() {
	if !l.deliverReady() {
		l.endPass()
		return
	}
	P := l.d.P
	l.wait(P.Instr(P.LCPHostDMASetupInstr)+P.DMASetup, atDeliverSetup)
}

// endPass starts the next pass if this one made progress, and otherwise
// idles until the device signals work.
func (l *LCP) endPass() {
	if l.progress {
		l.pass()
		return
	}
	l.stats.IdleWakes++
	l.at = atWoken
	l.d.Work.Notify(&l.idle, resume, l)
}

// resume continues the loop from the wait point l.at. Each case is the
// code a firmware process would run between two of its waits. During
// teardown the loop does nothing, as a blocked process would unwind.
func (l *LCP) resume() {
	d := l.d
	if d.K.Stopped() {
		return
	}
	P := d.P
	switch l.at {
	case atTop:
		l.pass()

	case atSendCharged:
		switch l.o.Source {
		case FromSendQueue:
			l.pkt = d.SendQ.Peek()
		case FromHostDMA:
			// Fetch and decode the descriptor, then pull the frame across
			// the bus before it can be spooled to the channel.
			l.wait(P.Instr(P.LCPHostDMASetupInstr)+P.DMASetup, atPullSetup)
			return
		default:
			l.pkt = d.NextSynthetic(l.o.SynthDst)
		}
		l.wait(P.DMASetup, atInjectSetup)
	case atPullSetup:
		var ready sim.Time
		l.pkt, ready = d.PullFromHost()
		l.waitUntil(ready, atPulled)
	case atPulled:
		l.wait(P.DMASetup, atInjectSetup)
	case atInjectSetup:
		done := d.Inject(l.pkt)
		l.pkt = nil
		l.waitUntil(done, atInjected)
	case atInjected:
		if l.o.Source == FromSendQueue {
			// The slot is reusable once the tail has left the card; the
			// lanaisent counter advances and a blocked host may resume.
			d.SendQ.Pop()
			d.SendFreed.Pulse()
		}
		l.progress = true
		if l.o.Streamed {
			l.sends()
		} else {
			l.recvs()
		}

	case atRecvCharged:
		l.wait(P.DMASetup, atRecvSetup)
	case atRecvSetup:
		pkt := d.PopRx()
		if l.o.HostDelivery {
			d.RecvQ.Push(pkt)
		} else {
			// Fig. 3 mode: the frame dies on the card. Recycle it once
			// the consumer has seen it.
			if l.o.OnReceive != nil {
				l.o.OnReceive(pkt)
			}
			d.Fab.Release(pkt)
		}
		l.progress = true
		if l.o.Streamed {
			l.recvs()
		} else {
			l.deliver()
		}

	case atDeliverSetup:
		// DMA undelivered packets to the host receive queue: "the LCP
		// DMAs all undelivered packets to the host memory" in one
		// transfer when aggregation is on (Section 4.4).
		n := d.RecvQ.Len()
		if free := d.HostRecvFree(); n > free {
			n = free
		}
		if !l.o.Aggregate {
			n = 1
		}
		// n is zero when space vanished while setup was paid; the next
		// pass retries.
		if n > 0 {
			l.batch = l.batch[:0]
			for i := 0; i < n; i++ {
				l.batch = append(l.batch, d.RecvQ.Pop())
			}
			d.DeliverToHost(l.batch) // the device copies the batch out
		}
		l.progress = true
		l.endPass()

	case atWoken:
		// Waking models the tail of one polling trip: the change is
		// noticed after a partial pass around the loop.
		l.wait(P.Instr(P.LCPIdleRecheckInstr), atTop)
	}
}
