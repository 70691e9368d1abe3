package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/lcp"
	"fm/internal/mpi"
	"fm/internal/myriapi"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
	"fm/internal/stats"
)

// The host stack's timing is pinned, not just its shape: every FM
// configuration family, both Myrinet API variants and MPI on FM drive a
// small fixed exchange whose event count, final virtual time, protocol
// and bus counters, latency distribution and global delivery order are
// recorded constants. A host charge paid at a different instant, or a
// LANai queue read before the host's time has caught up, moves at least
// one of them.

const (
	stNodes = 4  // nodes in every exchange
	stPer   = 30 // messages each sending node issues
)

// stackPin is the recorded outcome of one exchange. Counters are summed
// over the nodes; digest folds in every node's own counters and the
// order in which handlers ran across the whole machine.
type stackPin struct {
	events uint64
	end    sim.Time
	ep     core.Stats
	bus    sbus.Stats
	latN   uint64
	lat    [4]sim.Duration // min, p50, p99, max
	digest uint64
}

func (x stackPin) String() string {
	e, b := x.ep, x.bus
	return fmt.Sprintf("{events: %d, end: %d,\n"+
		"\tep: core.Stats{Sent: %d, Delivered: %d, AcksSent: %d, AcksPiggybacked: %d, SeqsAcked: %d, RejectsSent: %d, RejectsReceived: %d, NetBounces: %d, Retransmits: %d, Duplicates: %d, SendBlocks: %d},\n"+
		"\tbus: sbus.Stats{PIOBytes: %d, DMABytes: %d, StatusReads: %d, CtrlWrites: %d},\n"+
		"\tlatN: %d, lat: [4]sim.Duration{%d, %d, %d, %d}, digest: %#x}",
		x.events, int64(x.end),
		e.Sent, e.Delivered, e.AcksSent, e.AcksPiggybacked, e.SeqsAcked, e.RejectsSent, e.RejectsReceived, e.NetBounces, e.Retransmits, e.Duplicates, e.SendBlocks,
		b.PIOBytes, b.DMABytes, b.StatusReads, b.CtrlWrites,
		x.latN, x.lat[0], x.lat[1], x.lat[2], x.lat[3], x.digest)
}

// recorder collects the cross-node observations an exchange pins.
type recorder struct {
	log []uint64 // (node, src, message id) in global handler order
	lat stats.Histogram
	ep  []core.Stats
	bus []sbus.Stats
}

// delivered logs one handler invocation. The log is shared by every
// node's process, so its order is the machine-wide handler order.
func (r *recorder) delivered(node, src int, payload []byte) {
	id := uint64(0)
	if len(payload) >= 4 {
		id = uint64(binary.LittleEndian.Uint32(payload))
	}
	r.log = append(r.log, uint64(node)<<48|uint64(src)<<32|id)
}

func (r *recorder) pin(k *sim.Kernel) stackPin {
	got := stackPin{events: k.EventsRun(), end: k.Now(), latN: r.lat.Count()}
	h := fnv.New64a()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, v := range r.log {
		put(v)
	}
	for _, s := range r.ep {
		for _, v := range []uint64{s.Sent, s.Delivered, s.AcksSent, s.AcksPiggybacked, s.SeqsAcked,
			s.RejectsSent, s.RejectsReceived, s.NetBounces, s.Retransmits, s.Duplicates, s.SendBlocks} {
			put(v)
		}
		got.ep.Sent += s.Sent
		got.ep.Delivered += s.Delivered
		got.ep.AcksSent += s.AcksSent
		got.ep.AcksPiggybacked += s.AcksPiggybacked
		got.ep.SeqsAcked += s.SeqsAcked
		got.ep.RejectsSent += s.RejectsSent
		got.ep.RejectsReceived += s.RejectsReceived
		got.ep.NetBounces += s.NetBounces
		got.ep.Retransmits += s.Retransmits
		got.ep.Duplicates += s.Duplicates
		got.ep.SendBlocks += s.SendBlocks
	}
	for _, s := range r.bus {
		for _, v := range []uint64{s.PIOBytes, s.DMABytes, s.StatusReads, s.CtrlWrites} {
			put(v)
		}
		got.bus.PIOBytes += s.PIOBytes
		got.bus.DMABytes += s.DMABytes
		got.bus.StatusReads += s.StatusReads
		got.bus.CtrlWrites += s.CtrlWrites
	}
	if r.lat.Count() > 0 {
		got.lat = [4]sim.Duration{r.lat.Min(), r.lat.Percentile(0.5), r.lat.Percentile(0.99), r.lat.Max()}
	}
	got.digest = h.Sum64()
	return got
}

// fmCase is one FM exchange: a configuration plus the traffic shape.
type fmCase struct {
	cfg core.Config
	// incast sends every message of nodes 1..3 to node 0, which sends
	// its own share to the others (the overloaded-receiver shape).
	incast bool
	// handlerCost is charged by every handler call.
	handlerCost sim.Duration
	// poll drains by spinning on HasIncoming instead of WaitIncoming.
	poll bool
	// pace computes between every two sends, so the outbound queues
	// drain while the host works.
	pace bool
	// linkSlowdown, when set, divides Myrinet's link rate by it, so the
	// card injects slower than the host stages frames and the outbound
	// rings fill.
	linkSlowdown int
	// fault, when set, takes node 1's interface down for the window.
	fault *myrinet.FaultWindow
}

// slowed returns the default costs with the link rate divided by
// slowdown (unchanged at zero).
func slowed(slowdown int) *cost.Params {
	p := cost.Default()
	if slowdown > 0 {
		p.LinkByte *= sim.Duration(slowdown)
	}
	return p
}

// stPayload is message j's payload length: it sweeps the frame so
// short, odd and full frames all cross the bus.
func stPayload(j, frame int) int { return 8 + (j*37)%(frame-7) }

// stCompute is the application's own work between library calls: a few
// hundred nanoseconds to a couple of microseconds, so host charges
// overlap arrivals, queue drains and other nodes' handlers.
func stCompute(j int) sim.Duration { return sim.Duration(100+j%7*350) * sim.Nanosecond }

// runFM drives one FM exchange: every sender interleaves bursts of
// sends with extracts and a little local compute, then every node
// drains, computing between extracts, until it has all its messages and
// nothing outstanding, then polls until a fixed settle instant so late
// bounces and acks are serviced.
func runFM(t *testing.T, c fmCase) stackPin {
	t.Helper()
	p := slowed(c.linkSlowdown)
	cl := cluster.NewFMFrom(func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
		f := myrinet.NewCrossbar(k, p, stNodes, 8)
		if c.fault != nil {
			f.ApplyFaults([]myrinet.FaultWindow{*c.fault})
		}
		return f
	}, c.cfg, p)
	settle := sim.Time(0)
	if c.fault != nil {
		settle = c.fault.End.Add(400 * sim.Microsecond)
	}
	rec := &recorder{}
	expect := make([]int, stNodes)
	sends := make([][]int, stNodes) // destination of each message
	for i := range sends {
		for j := 0; j < stPer; j++ {
			dst := (i + 1 + j%(stNodes-1)) % stNodes
			if c.incast && i != 0 {
				dst = 0
			}
			sends[i] = append(sends[i], dst)
			expect[dst]++
		}
	}
	for i := 0; i < stNodes; i++ {
		i := i
		cl.Start(i, func(ep *core.Endpoint) {
			got := 0
			ep.RegisterHandler(0, func(src int, payload []byte) {
				got++
				rec.delivered(i, src, payload)
				if c.handlerCost > 0 {
					ep.CPU().Advance(c.handlerCost)
				}
			})
			buf := make([]byte, c.cfg.FramePayload)
			// Nodes start and compute out of step, so no two run the
			// same code at the same instant.
			ep.CPU().Advance(stCompute(3 * i))
			for j, dst := range sends[i] {
				msg := buf[:stPayload(j, c.cfg.FramePayload)]
				binary.LittleEndian.PutUint32(msg, uint32(i<<16|j))
				if err := ep.Send(dst, 0, msg); err != nil {
					panic(err)
				}
				if c.pace {
					ep.CPU().Advance(3 * stCompute(i+j))
				}
				if j%4 == 3 {
					ep.CPU().Advance(stCompute(i + j))
					ep.Extract()
				}
			}
			for n := 0; got < expect[i] || ep.Outstanding() > 0; n++ {
				ep.CPU().Advance(stCompute(2*i + n))
				if c.poll {
					for !ep.HasIncoming() {
						ep.CPU().Advance(400 * sim.Nanosecond)
					}
				} else {
					ep.WaitIncoming()
				}
				ep.Extract()
			}
			for ep.Now() < settle {
				ep.CPU().Advance(10 * sim.Microsecond)
				ep.Extract()
			}
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ep := range cl.EPs {
		rec.lat.Merge(ep.LatencyHistogram())
		rec.ep = append(rec.ep, ep.Stats())
		rec.bus = append(rec.bus, cl.Buses[i].Stats())
		if ep.Outstanding() != 0 {
			t.Errorf("node %d ends with %d outstanding", i, ep.Outstanding())
		}
	}
	if len(rec.log) != stNodes*stPer {
		t.Errorf("%d deliveries", len(rec.log))
	}
	return rec.pin(cl.K)
}

// apiCompute is stCompute scaled to the API's costs, which are tens of
// microseconds per call where FM's are hundreds of nanoseconds.
func apiCompute(j int) sim.Duration { return 20 * stCompute(j) }

// runAPI drives a ring through the Myrinet API layer: the API orders
// delivery per source with one sequence counter per sender, so each
// node sends to one peer only. Node i extracts after every every[i]
// sends. A link slowed enough makes the card, not the API's heavy host
// path, the bottleneck, so the send rings fill.
func runAPI(t *testing.T, v myriapi.Variant, slowdown int, every [stNodes]int) stackPin {
	t.Helper()
	p := slowed(slowdown)
	cfg := myriapi.DefaultConfig(v)
	// The API's own geometry, with rings shallow enough that a slow
	// receiver backs the network up into the senders' queues.
	qc := cfg.Queues(p)
	qc.RecvSlots, qc.HostRecvSlots = 2, 2
	hw := cluster.NewHardware(stNodes, p, qc, 8)
	eps := make([]*myriapi.Endpoint, stNodes)
	for i := range eps {
		eps[i] = myriapi.New(hw.CPUs[i], hw.Devs[i], cfg, p)
		lcp.Start(hw.Devs[i], cfg.LCPOptions(p))
	}
	rec := &recorder{}
	frame := cfg.MaxMessage
	for i := 0; i < stNodes; i++ {
		i := i
		cpu, ep := hw.CPUs[i], eps[i]
		cpu.Start(func() {
			got := 0
			ep.RegisterHandler(0, func(src int, payload []byte) {
				got++
				rec.delivered(i, src, payload)
				cpu.Advance(apiCompute(got))
			})
			buf := make([]byte, frame)
			for j := 0; j < stPer; j++ {
				msg := buf[:stPayload(j*13, frame)]
				binary.LittleEndian.PutUint32(msg, uint32(i<<16|j))
				if err := ep.Send((i+1)%stNodes, 0, msg); err != nil {
					panic(err)
				}
				if j%every[i] == every[i]-1 {
					cpu.Advance(apiCompute(j))
					ep.Extract()
				}
			}
			for n := 0; got < stPer; n++ {
				cpu.Advance(apiCompute(n))
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := hw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range hw.Buses {
		rec.bus = append(rec.bus, b.Stats())
	}
	if len(rec.log) != stNodes*stPer {
		t.Errorf("%d deliveries", len(rec.log))
	}
	return rec.pin(hw.K)
}

// runMPI drives an MPI all-to-all on FM with wildcard receives posted
// up front; every message spans two FM frames. Each rank logs its
// completed receives (in posting order) and the run ends with an
// Allreduce.
func runMPI(t *testing.T) stackPin {
	t.Helper()
	const perPeer = 6
	cl := cluster.NewFM(stNodes, core.DefaultConfig(), cost.Default())
	rec := &recorder{}
	for r := 0; r < stNodes; r++ {
		r := r
		cl.Start(r, func(ep *core.Endpoint) {
			w := mpi.NewWorld(ep, stNodes, 0)
			reqs := make([]*mpi.Request, 0, perPeer*(stNodes-1))
			for range cap(reqs) {
				reqs = append(reqs, w.Irecv(mpi.AnySource, mpi.AnyTag))
			}
			data := make([]byte, 200)
			for j := 0; j < perPeer; j++ {
				for d := 1; d < stNodes; d++ {
					binary.LittleEndian.PutUint32(data, uint32(r<<16|j))
					w.Send((r+d)%stNodes, j, data[:120+j*15])
				}
			}
			w.Waitall(reqs)
			for _, q := range reqs {
				b, st := w.Wait(q)
				rec.delivered(r, st.Source, b)
				rec.log = append(rec.log, uint64(st.Tag)<<32|uint64(st.Count))
			}
			if sum := w.Allreduce([]float64{float64(r)}, mpi.Sum); sum[0] != 6 {
				panic(fmt.Sprintf("allreduce %v", sum))
			}
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ep := range cl.EPs {
		rec.lat.Merge(ep.LatencyHistogram())
		rec.ep = append(rec.ep, ep.Stats())
		rec.bus = append(rec.bus, cl.Buses[i].Stats())
	}
	return rec.pin(cl.K)
}

type stackCase struct {
	name string
	run  func(*testing.T) stackPin
}

func fmRun(c fmCase) func(*testing.T) stackPin {
	return func(t *testing.T) stackPin { return runFM(t, c) }
}

// stackCases covers FM's SBus architectures, buffer management and flow
// control on and off, both flow-control protocols, piggybacked and
// standalone acknowledgements, receiver rejects with retransmission, a
// fabric-fault bounce, both Myrinet API variants and MPI on FM.
func stackCases() []stackCase {
	def := core.DefaultConfig()
	with := func(f func(*core.Config)) core.Config {
		c := def
		f(&c)
		return c
	}
	return []stackCase{
		{"fm/hybrid", fmRun(fmCase{cfg: def})},
		{"fm/hybrid/polled", fmRun(fmCase{cfg: def, poll: true})},
		{"fm/alldma", fmRun(fmCase{cfg: with(func(c *core.Config) { c.SBusMode = core.AllDMA })})},
		{"fm/alldma/paced", fmRun(fmCase{cfg: with(func(c *core.Config) { c.SBusMode = core.AllDMA }), pace: true})},
		{"fm/hybrid/vestigial", fmRun(fmCase{cfg: shallow(core.VestigialConfig(core.Hybrid))})},
		{"fm/alldma/vestigial", fmRun(fmCase{cfg: shallow(core.VestigialConfig(core.AllDMA)), handlerCost: 2 * sim.Microsecond})},
		{"fm/hybrid/no-bufmgmt", fmRun(fmCase{cfg: shallow(with(func(c *core.Config) { c.BufferMgmt = false }))})},
		{"fm/alldma/no-bufmgmt", fmRun(fmCase{cfg: shallow(with(func(c *core.Config) {
			c.SBusMode, c.BufferMgmt = core.AllDMA, false
		})), linkSlowdown: 4, pace: true})},
		{"fm/hybrid/no-flowcontrol", fmRun(fmCase{cfg: with(func(c *core.Config) {
			c.FlowControl, c.PiggybackAcks, c.RejectThreshold = false, false, 0
		})})},
		{"fm/standalone-acks", fmRun(fmCase{cfg: with(func(c *core.Config) {
			c.PiggybackAcks, c.AckBatch = false, 4
		})})},
		{"fm/piggyback-drain-limit", fmRun(fmCase{cfg: with(func(c *core.Config) { c.AckBatch, c.DrainLimit = 3, 2 })})},
		{"fm/sliding-window", fmRun(fmCase{cfg: with(func(c *core.Config) {
			c.Protocol, c.WindowPerDest = core.SlidingWindow, 3
		})})},
		{"fm/small-window", fmRun(fmCase{cfg: with(func(c *core.Config) { c.WindowSlots = 6 })})},
		{"fm/reject", fmRun(fmCase{cfg: with(func(c *core.Config) {
			c.RejectThreshold, c.DrainLimit, c.RetryDelay = 3, 2, 20*sim.Microsecond
			c.PiggybackAcks, c.AckBatch = false, 2
		}), incast: true, handlerCost: 3 * sim.Microsecond})},
		{"fm/reject-all", fmRun(fmCase{cfg: with(func(c *core.Config) {
			c.RejectThreshold, c.DrainLimit, c.RetryDelay = 2, 1, 20*sim.Microsecond
			c.PiggybackAcks, c.AckBatch = false, 1
		}), handlerCost: 2 * sim.Microsecond})},
		{"fm/fault-bounce", fmRun(fmCase{cfg: with(func(c *core.Config) { c.RetryDelay = 15 * sim.Microsecond }),
			fault: &myrinet.FaultWindow{Kind: myrinet.NodeFault, Index: 1,
				Start: sim.Time(5 * sim.Microsecond), End: sim.Time(60 * sim.Microsecond)}})},
		{"api/imm", func(t *testing.T) stackPin { return runAPI(t, myriapi.SendImm, 32, [stNodes]int{1, 3, 8, 8}) }},
		{"api/dma", func(t *testing.T) stackPin { return runAPI(t, myriapi.SendDMA, 32, [stNodes]int{1, 3, 8, 8}) }},
		{"api/dma/fast-link", func(t *testing.T) stackPin { return runAPI(t, myriapi.SendDMA, 0, [stNodes]int{1, 2, 5, stPer}) }},
		{"mpi/fm", runMPI},
	}
}

// shallow gives c two-slot outbound rings and four-slot inbound ones,
// so bursts of sends, and receivers slowed by handlerCost, make senders
// wait for queue space.
func shallow(c core.Config) core.Config {
	c.SendSlots, c.HostOutSlots = 2, 2
	c.RecvSlots, c.HostRecvSlots = 4, 4
	return c
}

// TestStackEquivalencePins runs every case and compares it with the
// constants recorded for it.
func TestStackEquivalencePins(t *testing.T) {
	for _, c := range stackCases() {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			want, ok := stackPins[c.name]
			if !ok {
				t.Fatalf("no pin recorded; measured\n%q: %v,", c.name, got)
			}
			if got != want {
				t.Errorf("exchange moved:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// stackPins holds the outcome of every case, recorded with every host
// charge paid as its own process sleep.
var stackPins = map[string]stackPin{
	"fm/hybrid": {events: 2621, end: 394412000,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 35, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10708, DMABytes: 10708, StatusReads: 4, CtrlWrites: 177},
		latN: 120, lat: [4]sim.Duration{13245500, 109051904, 201326592, 203735000}, digest: 0xf92298e35a8b02c7},
	"fm/hybrid/polled": {events: 3744, end: 394913500,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 35, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10708, DMABytes: 10708, StatusReads: 4, CtrlWrites: 177},
		latN: 120, lat: [4]sim.Duration{13245500, 109051904, 201326592, 203877500}, digest: 0xad02457181e0aec7},
	"fm/alldma": {events: 2896, end: 498090300,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 12, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 20680, StatusReads: 136, CtrlWrites: 272},
		latN: 120, lat: [4]sim.Duration{216305500, 301989888, 385875968, 392449800}, digest: 0xaa078f73771ebf65},
	"fm/alldma/paced": {events: 3307, end: 499321600,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 23, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 21032, StatusReads: 147, CtrlWrites: 302},
		latN: 120, lat: [4]sim.Duration{25425500, 192937984, 360710144, 382999700}, digest: 0xbd7e60e7d2f0ca99},
	"fm/hybrid/vestigial": {events: 1712, end: 277410500,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10148, DMABytes: 10148, StatusReads: 0, CtrlWrites: 120},
		latN: 120, lat: [4]sim.Duration{13075500, 36700160, 59768832, 62920500}, digest: 0x23bc175a069b8135},
	"fm/alldma/vestigial": {events: 2584, end: 420391800,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 20296, StatusReads: 120, CtrlWrites: 240},
		latN: 120, lat: [4]sim.Duration{190158000, 213909504, 239075328, 239121500}, digest: 0x4c0f32257f5b70a5},
	"fm/hybrid/no-bufmgmt": {events: 3420, end: 468553500,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 114, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 11972, DMABytes: 11972, StatusReads: 0, CtrlWrites: 234},
		latN: 120, lat: [4]sim.Duration{13675500, 94371840, 127926272, 133689000}, digest: 0xe678f1246453bbfd},
	"fm/alldma/no-bufmgmt": {events: 4414, end: 669826500,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 92, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 23240, StatusReads: 212, CtrlWrites: 424},
		latN: 120, lat: [4]sim.Duration{263638600, 293601280, 327155712, 334558800}, digest: 0x55acfd5839577bd},
	"fm/hybrid/no-flowcontrol": {events: 1869, end: 281615000,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10148, DMABytes: 10148, StatusReads: 0, CtrlWrites: 143},
		latN: 120, lat: [4]sim.Duration{13036000, 56623104, 96468992, 101456000}, digest: 0xc01d566aaa49d164},
	"fm/standalone-acks": {events: 2792, end: 390493000,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 46, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10884, DMABytes: 10884, StatusReads: 4, CtrlWrites: 188},
		latN: 120, lat: [4]sim.Duration{13245500, 113246208, 188743680, 192456000}, digest: 0x5c636445bb880b25},
	"fm/piggyback-drain-limit": {events: 2879, end: 384064500,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 45, AcksPiggybacked: 18, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 10868, DMABytes: 10868, StatusReads: 4, CtrlWrites: 195},
		latN: 120, lat: [4]sim.Duration{13245500, 146800640, 171966464, 176361500}, digest: 0x872176f7a8867fd3},
	"fm/sliding-window": {events: 3386, end: 547254000,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 80, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 43},
		bus:  sbus.Stats{PIOBytes: 11428, DMABytes: 11428, StatusReads: 4, CtrlWrites: 242},
		latN: 120, lat: [4]sim.Duration{13245500, 61865984, 90177536, 94246000}, digest: 0x9195c68b90239214},
	"fm/small-window": {events: 3846, end: 628034000,
		ep:   core.Stats{Sent: 120, Delivered: 120, AcksSent: 106, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 64},
		bus:  sbus.Stats{PIOBytes: 11844, DMABytes: 11844, StatusReads: 4, CtrlWrites: 275},
		latN: 120, lat: [4]sim.Duration{8958500, 35651584, 58720256, 62045500}, digest: 0xcc0f358fea6ee188},
	"fm/reject": {events: 36069, end: 9526758500,
		ep:   core.Stats{Sent: 1017, Delivered: 120, AcksSent: 90, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 897, RejectsReceived: 897, NetBounces: 0, Retransmits: 897, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 156904, DMABytes: 156904, StatusReads: 66, CtrlWrites: 2877},
		latN: 120, lat: [4]sim.Duration{8712000, 5368709120, 9395240960, 9464012500}, digest: 0x43164c42e611aa01},
	"fm/reject-all": {events: 16123, end: 2875827500,
		ep:   core.Stats{Sent: 546, Delivered: 120, AcksSent: 120, AcksPiggybacked: 0, SeqsAcked: 120, RejectsSent: 426, RejectsReceived: 426, NetBounces: 0, Retransmits: 426, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 88326, DMABytes: 88326, StatusReads: 34, CtrlWrites: 1255},
		latN: 120, lat: [4]sim.Duration{18505000, 1509949440, 2751463424, 2817943000}, digest: 0xc8a1b04eaa735d1a},
	"fm/fault-bounce": {events: 2773, end: 467019500,
		ep:   core.Stats{Sent: 135, Delivered: 120, AcksSent: 26, AcksPiggybacked: 4, SeqsAcked: 120, RejectsSent: 0, RejectsReceived: 0, NetBounces: 15, Retransmits: 15, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 11759, DMABytes: 11759, StatusReads: 4, CtrlWrites: 180},
		latN: 120, lat: [4]sim.Duration{16449500, 127926272, 369098752, 379853000}, digest: 0x520657639db0d3a4},
	"api/imm": {events: 2918, end: 25880524500,
		ep:   core.Stats{Sent: 0, Delivered: 0, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 236088, DMABytes: 236088, StatusReads: 316, CtrlWrites: 240},
		latN: 0, lat: [4]sim.Duration{0, 0, 0, 0}, digest: 0xe7d37ec7641138f},
	"api/dma": {events: 3723, end: 27277560100,
		ep:   core.Stats{Sent: 0, Delivered: 0, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 472176, StatusReads: 305, CtrlWrites: 360},
		latN: 0, lat: [4]sim.Duration{0, 0, 0, 0}, digest: 0xc51a1a386d75b9c6},
	"api/dma/fast-link": {events: 4173, end: 10667809900,
		ep:   core.Stats{Sent: 0, Delivered: 0, AcksSent: 0, AcksPiggybacked: 0, SeqsAcked: 0, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 0, DMABytes: 472176, StatusReads: 240, CtrlWrites: 360},
		latN: 0, lat: [4]sim.Duration{0, 0, 0, 0}, digest: 0xc6dc5a8d8ed27065},
	"mpi/fm": {events: 3886, end: 719670400,
		ep:   core.Stats{Sent: 150, Delivered: 150, AcksSent: 18, AcksPiggybacked: 0, SeqsAcked: 150, RejectsSent: 0, RejectsReceived: 0, NetBounces: 0, Retransmits: 0, Duplicates: 0, SendBlocks: 0},
		bus:  sbus.Stats{PIOBytes: 17076, DMABytes: 17076, StatusReads: 4, CtrlWrites: 183},
		latN: 150, lat: [4]sim.Duration{9416000, 276824064, 369098752, 370580900}, digest: 0x2d6d793f71f12dc4},
}
