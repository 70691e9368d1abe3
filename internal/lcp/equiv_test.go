package lcp

import (
	"fmt"
	"testing"

	"fm/internal/cost"
	"fm/internal/lanai"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// The control program's timing is pinned, not just its shape: every
// Options combination the repository runs drives a fixed two-node
// exchange whose event count, final virtual time and counters are
// recorded constants. Any change to the loop's wait points, their order
// or their cost moves at least one of them.

const (
	exFrames  = 24                    // frames each node sends to the other
	exPayload = 64                    // payload bytes per frame
	exPoll    = 1500 * sim.Nanosecond // host polling period
)

// exchange is a fixed two-node, both-directions transfer. The hosts are
// plain periodic callbacks (no processes): each poll tops up the
// outbound ring, rings the doorbell, and drains the host receive queue.
type exchange struct {
	k      *sim.Kernel
	fab    *myrinet.Fabric
	devs   [2]*lanai.Device
	lcps   [2]*LCP
	o      Options
	toSend [2]int // frames the host still has to stage
	got    [2]int // frames consumed at each node
	buf    []byte
}

// pin is the recorded outcome of one exchange.
type pin struct {
	events uint64
	end    sim.Time
	lcp    [2]Stats
	dev    [2]lanai.Stats
}

func (x pin) String() string {
	s := fmt.Sprintf("{events: %d, end: %d,\n\tlcp: [2]Stats{", x.events, int64(x.end))
	for _, l := range x.lcp {
		s += fmt.Sprintf("{Loops: %d, IdleWakes: %d}, ", l.Loops, l.IdleWakes)
	}
	s += "},\n\tdev: [2]lanai.Stats{"
	for _, d := range x.dev {
		s += fmt.Sprintf("\n\t\t{Sent: %d, Received: %d, Delivered: %d, HostDMABatches: %d, HostDMAPackets: %d, NetStalls: %d},",
			d.Sent, d.Received, d.Delivered, d.HostDMABatches, d.HostDMAPackets, d.NetStalls)
	}
	return s + "\n\t}}"
}

func runExchange(t *testing.T, o Options) (*exchange, pin) {
	t.Helper()
	p := cost.Default()
	x := &exchange{k: sim.NewKernel(), o: o, buf: make([]byte, exPayload)}
	for i := range x.buf {
		x.buf[i] = byte(i)
	}
	x.fab = myrinet.NewCrossbar(x.k, p, 2, 8)
	// Shallow rings so the refill, doorbell and host-space paths all run.
	qc := lanai.DefaultQueues(exPayload + p.FMHeaderBytes)
	qc.SendSlots, qc.HostOutSlots, qc.HostRecvSlots = 4, 4, 8
	for i := range x.devs {
		x.devs[i] = lanai.New(x.k, p, sbus.New(x.k, p, fmt.Sprintf("sbus%d", i)), x.fab, i, qc)
	}
	for i := range x.lcps {
		oi := o
		oi.SynthDst = 1 - i
		if !o.HostDelivery {
			n := i
			oi.OnReceive = func(pk *myrinet.Packet) {
				if pk.Dst != n || len(pk.Payload) != exPayload {
					t.Errorf("node %d got %v", n, pk)
				}
				x.got[n]++
			}
		}
		x.lcps[i] = Start(x.devs[i], oi)
		if o.Source == Synthetic {
			x.devs[i].SetSynthetic(exFrames, exPayload)
		} else {
			x.toSend[i] = exFrames
		}
	}
	x.k.AtArg(0, hostPoll, x)
	if err := x.k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if x.got != [2]int{exFrames, exFrames} {
		t.Fatalf("consumed %v frames, want %d each", x.got, exFrames)
	}
	got := pin{events: x.k.EventsRun(), end: x.k.Now()}
	for i := range x.devs {
		got.lcp[i] = x.lcps[i].Stats()
		got.dev[i] = x.devs[i].Stats()
	}
	return x, got
}

// hostPoll is both hosts' periodic service routine. It re-arms itself
// until every frame has been consumed at both ends.
func hostPoll(a any) {
	x := a.(*exchange)
	for i, d := range x.devs {
		out := d.SendQ
		if x.o.Source == FromHostDMA {
			out = d.HostOutQ
		}
		staged := false
		for x.toSend[i] > 0 && !out.Full() {
			pk := x.fab.NewPacket()
			pk.Src, pk.Dst = i, 1-i
			pk.Type = myrinet.Data
			pk.SetPayload(x.buf)
			pk.HeaderBytes = d.P.FMHeaderBytes
			out.Push(pk)
			x.toSend[i]--
			staged = true
		}
		if staged {
			d.HostDoorbell()
		}
		if x.o.HostDelivery && !d.HostRecvQ.Empty() {
			for !d.HostRecvQ.Empty() {
				x.fab.Release(d.HostRecvQ.Pop())
				x.got[i]++
			}
			d.HostUpdateRecvConsumed(d.HostRecvQ.Consumed())
		}
	}
	if x.got != [2]int{exFrames, exFrames} {
		x.k.AfterArg(exPoll, hostPoll, x)
	}
}

type equivCase struct {
	name string
	o    Options
}

// equivCases lists every Options combination the repository runs: the
// full loop × source × delivery cross product, then the modifier sets
// that core.Config.LCPOptions, myriapi.Config.LCPOptions and the Fig. 3
// sweeps (internal/bench/sweep.go) build.
func equivCases(p *cost.Params) []equivCase {
	var cs []equivCase
	srcs := []struct {
		name string
		s    Source
	}{{"sendq", FromSendQueue}, {"hostdma", FromHostDMA}, {"synthetic", Synthetic}}
	for _, streamed := range []bool{false, true} {
		for _, src := range srcs {
			for _, host := range []bool{false, true} {
				name := "baseline"
				if streamed {
					name = "streamed"
				}
				name += "/" + src.name
				if host {
					name += "/host"
				}
				cs = append(cs, equivCase{name, Options{Streamed: streamed, Source: src.s, HostDelivery: host}})
			}
		}
	}
	fm := func(s Source, streamed, aggregate, interpret bool, extra int) Options {
		return Options{Streamed: streamed, Source: s, HostDelivery: true,
			Aggregate: aggregate, Interpret: interpret, ExtraInstrPerPacket: extra}
	}
	return append(cs,
		equivCase{"fm/hybrid/aggregate", fm(FromSendQueue, true, true, false, 0)},
		equivCase{"fm/hybrid/bufmgmt", fm(FromSendQueue, true, true, false, p.LCPFMExtraInstr)},
		equivCase{"fm/hybrid/bufmgmt/switch", fm(FromSendQueue, true, true, true, p.LCPFMExtraInstr)},
		equivCase{"fm/hybrid/baseline-loop", fm(FromSendQueue, false, true, false, p.LCPFMExtraInstr)},
		equivCase{"fm/alldma/aggregate", fm(FromHostDMA, true, true, false, 0)},
		equivCase{"fm/alldma/bufmgmt/switch", fm(FromHostDMA, true, true, true, p.LCPFMExtraInstr)},
		equivCase{"api/imm", fm(FromSendQueue, false, false, false, p.APILCPExtraInstr)},
		equivCase{"api/dma", fm(FromHostDMA, false, false, false, p.APILCPExtraInstr)},
		equivCase{"fig3/streamed/interpret", Options{Streamed: true, Interpret: true, Source: Synthetic}},
		equivCase{"synthetic/host/aggregate", Options{Streamed: true, Source: Synthetic, HostDelivery: true, Aggregate: true}},
	)
}

// TestLoopEquivalencePins runs every case and compares it with the
// constants recorded for it.
func TestLoopEquivalencePins(t *testing.T) {
	for _, c := range equivCases(cost.Default()) {
		t.Run(c.name, func(t *testing.T) {
			x, got := runExchange(t, c.o)
			want, ok := equivPins[c.name]
			if !ok {
				t.Fatalf("no pin recorded; measured\n%q: %v,", c.name, got)
			}
			if got != want {
				t.Errorf("exchange moved:\n got %v\nwant %v", got, want)
			}
			// Packet conservation: every frame taken from the fabric
			// pool was released or is still queued on a card or host.
			queued := 0
			for _, d := range x.devs {
				queued += d.SendQ.Len() + d.HostOutQ.Len() + d.RecvQ.Len() + d.HostRecvQ.Len()
				if d.RxAvailable() {
					t.Errorf("node %d: frames left on the incoming channel", d.ID)
				}
			}
			if out := x.fab.Outstanding(); out != queued {
				t.Errorf("fabric has %d packets outstanding, %d queued", out, queued)
			}
		})
	}
}

// equivPins holds the outcome of every case, recorded with the loop
// running as a simulated process (each Sleep, SleepUntil and Wait a
// coroutine switch), before it became a chain of step events.
var equivPins = map[string]pin{
	"baseline/sendq": {events: 437, end: 213000000,
		lcp: [2]Stats{{Loops: 27, IdleWakes: 2}, {Loops: 27, IdleWakes: 2}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
		}},
	"baseline/sendq/host": {events: 556, end: 241960000,
		lcp: [2]Stats{{Loops: 28, IdleWakes: 3}, {Loops: 28, IdleWakes: 3}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"baseline/hostdma": {events: 627, end: 282000000,
		lcp: [2]Stats{{Loops: 27, IdleWakes: 2}, {Loops: 27, IdleWakes: 2}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
		}},
	"baseline/hostdma/host": {events: 746, end: 311080000,
		lcp: [2]Stats{{Loops: 28, IdleWakes: 3}, {Loops: 28, IdleWakes: 3}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"baseline/synthetic": {events: 432, end: 211500000,
		lcp: [2]Stats{{Loops: 26, IdleWakes: 1}, {Loops: 26, IdleWakes: 1}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 0},
		}},
	"baseline/synthetic/host": {events: 556, end: 242340000,
		lcp: [2]Stats{{Loops: 28, IdleWakes: 3}, {Loops: 28, IdleWakes: 3}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"streamed/sendq": {events: 414, end: 178500000,
		lcp: [2]Stats{{Loops: 3, IdleWakes: 2}, {Loops: 3, IdleWakes: 2}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
		}},
	"streamed/sendq/host": {events: 665, end: 267240000,
		lcp: [2]Stats{{Loops: 50, IdleWakes: 26}, {Loops: 50, IdleWakes: 26}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
		}},
	"streamed/hostdma": {events: 604, end: 247500000,
		lcp: [2]Stats{{Loops: 3, IdleWakes: 2}, {Loops: 3, IdleWakes: 2}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
		}},
	"streamed/hostdma/host": {events: 855, end: 336360000,
		lcp: [2]Stats{{Loops: 50, IdleWakes: 26}, {Loops: 50, IdleWakes: 26}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
		}},
	"streamed/synthetic": {events: 410, end: 178500000,
		lcp: [2]Stats{{Loops: 2, IdleWakes: 1}, {Loops: 2, IdleWakes: 1}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
		}},
	"streamed/synthetic/host": {events: 665, end: 267840000,
		lcp: [2]Stats{{Loops: 50, IdleWakes: 26}, {Loops: 50, IdleWakes: 26}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 22},
		}},
	"fm/hybrid/aggregate": {events: 471, end: 222200000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
	"fm/hybrid/bufmgmt": {events: 489, end: 249200000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
	"fm/hybrid/bufmgmt/switch": {events: 556, end: 349700000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
	"fm/hybrid/baseline-loop": {events: 574, end: 268840000,
		lcp: [2]Stats{{Loops: 28, IdleWakes: 3}, {Loops: 28, IdleWakes: 3}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"fm/alldma/aggregate": {events: 661, end: 291200000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
	"fm/alldma/bufmgmt/switch": {events: 746, end: 418700000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
	"api/imm": {events: 735, end: 510760000,
		lcp: [2]Stats{{Loops: 28, IdleWakes: 3}, {Loops: 28, IdleWakes: 3}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"api/dma": {events: 930, end: 581340000,
		lcp: [2]Stats{{Loops: 29, IdleWakes: 4}, {Loops: 29, IdleWakes: 4}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 24, HostDMAPackets: 24, NetStalls: 0},
		}},
	"fig3/streamed/interpret": {events: 477, end: 279000000,
		lcp: [2]Stats{{Loops: 2, IdleWakes: 1}, {Loops: 2, IdleWakes: 1}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 0, HostDMABatches: 0, HostDMAPackets: 0, NetStalls: 22},
		}},
	"synthetic/host/aggregate": {events: 471, end: 222840000,
		lcp: [2]Stats{{Loops: 9, IdleWakes: 6}, {Loops: 9, IdleWakes: 6}},
		dev: [2]lanai.Stats{
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
			{Sent: 24, Received: 24, Delivered: 24, HostDMABatches: 3, HostDMAPackets: 24, NetStalls: 22},
		}},
}
