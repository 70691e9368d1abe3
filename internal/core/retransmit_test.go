package core_test

import (
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Direct unit tests for the endpoint's resilience paths: a fabric
// bounce (fault-generated Reject) must park the frame and resend it
// after the retry backoff, bounced acknowledgements must be resent as
// acknowledgements, and the (src, seq) screen must swallow a duplicate
// delivery without running the handler twice.

// faultedPair builds a 2-node FM cluster on a crossbar with the given
// fault timeline installed.
func faultedPair(cfg core.Config, p *cost.Params, ws []myrinet.FaultWindow) *cluster.FM {
	return cluster.NewFMFrom(func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
		f := myrinet.NewCrossbar(k, p, 2, 8)
		f.ApplyFaults(ws)
		return f
	}, cfg, p)
}

// settlePoll keeps a rank alive servicing late bounces until `until`.
func settlePoll(ep *core.Endpoint, until sim.Time) {
	for ep.Now() < until {
		ep.CPU().Advance(10 * sim.Microsecond)
		ep.Extract()
	}
}

// TestNetBounceTimeoutResend: the receiver's interface dies mid-burst.
// Every frame addressed to it during the outage comes back as a fabric
// bounce; the sender must requeue each one, wait out RetryDelay, resend,
// and end with every message delivered exactly once.
func TestNetBounceTimeoutResend(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.RetryDelay = 15 * sim.Microsecond
	p := cost.Default()
	// Node 1's interface is down 5-80us: long enough that several of the
	// sender's frames (and some of the receiver's acks) bounce.
	ws := []myrinet.FaultWindow{{Kind: myrinet.NodeFault, Index: 1,
		Start: sim.Time(5 * sim.Microsecond), End: sim.Time(80 * sim.Microsecond)}}
	c := faultedPair(cfg, p, ws)

	const n = 40
	settle := sim.Time(80*sim.Microsecond + 8*15*sim.Microsecond + 200*sim.Microsecond)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	c.Start(0, func(ep *core.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != n {
		t.Fatalf("received %d/%d", recv, n)
	}
	sst, rst := c.EPs[0].Stats(), c.EPs[1].Stats()
	if sst.NetBounces == 0 {
		t.Fatal("no frames bounced: the outage missed the burst")
	}
	if sst.Retransmits == 0 {
		t.Fatal("bounced frames were never retransmitted")
	}
	if sst.Duplicates != 0 || rst.Duplicates != 0 {
		t.Fatalf("duplicates delivered: sender %d receiver %d", sst.Duplicates, rst.Duplicates)
	}
	if fs := c.Fab.FaultStats(); fs.NodeDowns != 1 || fs.Recoveries != 1 {
		t.Fatalf("fault toggles = %+v, want one down and one recovery", fs)
	}
	if c.Fab.PendingStranded() != 0 {
		t.Fatalf("%d frames stranded", c.Fab.PendingStranded())
	}
}

// TestBouncedAckResentAsAck: the *receiver's* standalone acknowledgements
// are what bounce (its interface dies after the data has arrived). A
// bounced Ack must be requeued and resent as an Ack — not mutated into a
// data retransmit — or the sender's window never drains.
func TestBouncedAckResentAsAck(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PiggybackAcks = false // force standalone acks
	cfg.AckBatch = 1          // ack every packet immediately
	cfg.RetryDelay = 15 * sim.Microsecond
	p := cost.Default()
	// The outage opens a little after the data burst lands, so the
	// bursts of standalone acks are what cross the dead interface.
	ws := []myrinet.FaultWindow{{Kind: myrinet.NodeFault, Index: 0,
		Start: sim.Time(8 * sim.Microsecond), End: sim.Time(60 * sim.Microsecond)}}
	c := faultedPair(cfg, p, ws)

	const n = 30
	settle := sim.Time(60*sim.Microsecond + 8*15*sim.Microsecond + 200*sim.Microsecond)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	c.Start(0, func(ep *core.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != n {
		t.Fatalf("received %d/%d", recv, n)
	}
	rst := c.EPs[1].Stats()
	if rst.NetBounces == 0 {
		t.Fatal("no acknowledgement bounced: the outage missed the ack stream")
	}
	if out := c.EPs[0].Outstanding(); out != 0 {
		t.Fatalf("sender still has %d outstanding: bounced acks never arrived", out)
	}
	if c.Fab.PendingStranded() != 0 {
		t.Fatalf("%d frames stranded", c.Fab.PendingStranded())
	}
}

// TestDuplicateDeliveryScreened forges a wire-level duplicate — the same
// (src, seq) delivered twice — and checks the endpoint's screen drops it:
// the handler runs once, Duplicates counts one. Under the real protocol
// duplicates cannot happen (a frame is accepted or rejected, never both),
// so the screen can only be exercised by injecting one by hand.
func TestDuplicateDeliveryScreened(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = false // the forged duplicate must count, not panic
	p := cost.Default()
	c := cluster.NewFM(2, cfg, p)

	// Forge a second copy of the first message (seq 1) from node 0 well after the original
	// has been delivered and acknowledged.
	fab := c.Fab
	fab.Kernel().AtArg(sim.Time(200*sim.Microsecond), func(any) {
		pkt := fab.NewPacket()
		pkt.Src, pkt.Dst = 0, 1
		pkt.Type = myrinet.Retransmit
		pkt.Handler = 0
		pkt.Seq = 1 // ep.Send assigns 1 to the first packet
		pkt.HeaderBytes = p.FMHeaderBytes
		pkt.SetPayload(make([]byte, 16))
		fab.Inject(pkt)
	}, nil)

	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		// Serve the original, then stay alive past the forged copy.
		for recv < 1 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, sim.Time(300*sim.Microsecond))
	})
	c.Start(0, func(ep *core.Endpoint) {
		ep.Send4(1, 0, 7, 0, 0, 0)
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, sim.Time(300*sim.Microsecond))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != 1 {
		t.Fatalf("handler ran %d times, want exactly once", recv)
	}
	rst := c.EPs[1].Stats()
	if rst.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want the forged copy screened", rst.Duplicates)
	}
	if rst.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", rst.Delivered)
	}
}

// TestDuplicateBelowMarkScreened forges a copy of seq 1 after the
// sender's acknowledged prefix has carried the receiver's low-water
// mark past it: the bitmap no longer holds seq 1, so only the mark can
// catch the copy. The forged frame carries a zero stamp, as a stale
// frame would.
func TestDuplicateBelowMarkScreened(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = false // the forged duplicate must count, not panic
	p := cost.Default()
	c := cluster.NewFM(2, cfg, p)
	const msgs = 200
	forgeAt := sim.Time(2 * sim.Millisecond)

	fab := c.Fab
	fab.Kernel().AtArg(forgeAt, func(any) {
		if mark, _ := core.ScreenOf(c.EPs[1], 0); mark <= 64 {
			t.Errorf("mark %d at the forge has not passed seq 1's bitmap word", mark)
		}
		pkt := fab.NewPacket()
		pkt.Src, pkt.Dst = 0, 1
		pkt.Type = myrinet.Retransmit
		pkt.Seq = 1
		pkt.HeaderBytes = p.FMHeaderBytes
		pkt.SetPayload(make([]byte, 16))
		fab.Inject(pkt)
	}, nil)

	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		for recv < msgs+1 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, forgeAt+sim.Time(100*sim.Microsecond))
	})
	c.Start(0, func(ep *core.Endpoint) {
		// The last send goes out with nothing else in flight, so its
		// stamp is its own seq.
		for i := 0; i <= msgs; i++ {
			if i == msgs {
				for ep.Outstanding() > 0 {
					ep.WaitIncoming()
					ep.Extract()
				}
			}
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, forgeAt+sim.Time(100*sim.Microsecond))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != msgs+1 {
		t.Fatalf("handler ran %d times, want %d", recv, msgs+1)
	}
	if d := c.EPs[1].Stats().Duplicates; d != 1 {
		t.Fatalf("Duplicates = %d, want the forged copy screened", d)
	}
}

// TestDuplicateScreenBounded runs a long all-to-all and checks that
// every receiver's screen ends holding a few bitmap words per source,
// bounded by the window, not one entry per message delivered.
func TestDuplicateScreenBounded(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = true
	const n, perSrc = 8, 3500
	c := cluster.NewFM(n, cfg, cost.Default())
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			got := 0
			ep.RegisterHandler(0, func(int, []byte) { got++ })
			for i := 0; i < perSrc; i++ {
				ep.Send4((id+1+i%(n-1))%n, 0, uint32(i), 0, 0, 0)
				ep.Extract()
			}
			for got < perSrc || ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	bound := cfg.WindowSlots/64 + 2
	for dst, ep := range c.EPs {
		for src := 0; src < n; src++ {
			if src == dst {
				continue
			}
			mark, words := core.ScreenOf(ep, src)
			if words > bound || mark < perSrc-uint64(64*bound) {
				t.Errorf("node %d screen for %d: mark %d, %d words (bound %d) after %d seqs",
					dst, src, mark, words, bound, perSrc)
			}
		}
	}
}
