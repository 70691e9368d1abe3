package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/mpi"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
	"fm/internal/workload"
)

// payloadSize is every workload's message payload: 112 bytes plus the
// 16-byte FM header is the paper's 128-byte frame, as in fmbench's
// scale, faults and soak experiments.
const payloadSize = 112

// Soak-faults shape: offered load past the ~2-2.5 MB/s/node knee of the
// 64-node Clos, the base destination list each Poisson stream cycles
// through, and the number of seeded outage windows overlaid.
const (
	soakLoadMBps  = 3.0
	soakBaseSends = 16
	soakFaults    = 5
	soakWindows   = 10 // stats.Series windows over the horizon
)

// The fault path's settle horizon, as workload.SoakDriveFM computes it:
// ranks keep polling past the last recovery so late bounces drain.
const (
	settleQuantum = 10 * sim.Microsecond
	settleSlack   = 200 * sim.Microsecond
)

// level is the stack depth a workload drives.
type level int

const (
	levelRaw  level = iota // bare fabric, no hosts
	levelFM                // full FM 1.0 stack, closed loop
	levelMPI               // MPI on FM, wildcard receives
	levelSoak              // full FM stack, open-loop Poisson source, faults
)

// instance is one workload at one size and seed set. The benchmark runs
// the sizes named in workloads; tests run small instances of the same
// shapes.
type instance struct {
	name    string
	level   level
	nodes   int
	horizon sim.Duration // soak only: arrival horizon
	seeds   seeds
}

// seeds are the three input streams a run draws from. Only the soak
// workload consumes them; the all-to-all patterns are closed forms.
type seeds struct {
	Arrival uint64 `json:"arrival_seed"` // Poisson interarrival streams
	Dest    uint64 `json:"dest_seed"`    // uniform-random destinations
	Fault   uint64 `json:"fault_seed"`   // RandomFaultPlan draw
}

// deriveSeeds spreads one run seed over the three input streams with a
// splitmix64 finalizer, so no two streams share a sequence.
func deriveSeeds(seed uint64) seeds {
	mix := func(k uint64) uint64 {
		z := seed*0x9e3779b97f4a7c15 + k*0xbf58476d1ce4e5b9
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	return seeds{Arrival: mix(1), Dest: mix(2), Fault: mix(3)}
}

// workloads is the benchmark's catalog, in the order README.md lists it.
var workloads = []instance{
	{name: "fm-alltoall", level: levelFM, nodes: 256},
	{name: "raw-alltoall", level: levelRaw, nodes: 2048},
	{name: "soak-faults", level: levelSoak, nodes: 64, horizon: 30 * sim.Millisecond},
	{name: "mpi-alltoall", level: levelMPI, nodes: 128},
}

func lookup(name string) (instance, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return instance{}, false
}

// pattern returns the traffic the instance offers: one all-to-all round,
// or for the soak a Poisson source over a uniform-random base.
func (in instance) pattern() workload.Pattern {
	if in.level != levelSoak {
		return workload.AllToAll{Rounds: 1}
	}
	load := soakLoadMBps // a variable: the gap truncates like fmbench's soakGap
	gap := sim.Duration(float64(payloadSize) / (load * metrics.MiB) * float64(sim.Second))
	return workload.PoissonSource{
		Base:    workload.UniformRandom{Seed: in.seeds.Dest, Packets: soakBaseSends},
		Seed:    in.seeds.Arrival,
		MeanGap: gap,
		Horizon: in.horizon,
	}
}

// rankSends is one rank's send list: a closed-form view over a
// streaming pattern, or the materialized Gen output.
type rankSends struct {
	list []workload.Send
	sp   workload.StreamingPattern
	src  int
	n    int
	ln   int
}

func (q rankSends) at(j int) workload.Send {
	if q.sp != nil {
		return q.sp.SendAt(q.src, q.n, j)
	}
	return q.list[j]
}

// inputs is everything set-up generates before the first event: per-rank
// send lists, the receive counts the ranks wait for, global message ids,
// and the compiled fault windows.
type inputs struct {
	sends    []rankSends
	expect   []int
	base     []int // global id of each rank's first message
	messages int
	windows  []myrinet.FaultWindow
	downs    int // link/switch/node windows among them
}

// generate expands the pattern exactly as the workload drive core does
// (streaming patterns are walked, never materialized) and draws the
// soak's fault plan against the built topology.
func (in instance) generate(topo *myrinet.Topology, n int) inputs {
	pat := in.pattern()
	g := inputs{sends: make([]rankSends, n), expect: make([]int, n), base: make([]int, n)}
	sp, _ := pat.(workload.StreamingPattern)
	for src := 0; src < n; src++ {
		if sp != nil {
			g.sends[src] = rankSends{sp: sp, src: src, n: n, ln: sp.RankLen(src, n)}
		} else {
			list := pat.Gen(src, n)
			g.sends[src] = rankSends{list: list, ln: len(list)}
		}
		q := g.sends[src]
		g.base[src] = g.messages
		g.messages += q.ln
		for j := 0; j < q.ln; j++ {
			s := q.at(j)
			if s.Size != 0 {
				panic(fmt.Sprintf("perfbench: %s sends a %d-byte override; every workload uses %d", in.name, s.Size, payloadSize))
			}
			g.expect[s.Dst]++
		}
	}
	if in.level == levelSoak {
		hUs := int64(in.horizon / sim.Microsecond)
		plan := workload.RandomFaultPlan(in.seeds.Fault, topo, soakFaults, hUs)
		ws, err := plan.Windows(topo, hUs)
		if err != nil {
			panic(fmt.Sprintf("perfbench: fault plan: %v", err))
		}
		g.windows = ws
		for _, w := range ws {
			switch w.Kind {
			case myrinet.LinkFault, myrinet.SwitchFault, myrinet.NodeFault:
				g.downs++
			}
		}
	}
	return g
}

// settleAt is the instant every rank polls until under a fault plan,
// matching workload.SoakDriveFM; zero without faults.
func settleAt(ws []myrinet.FaultWindow, retry sim.Duration) sim.Time {
	var last sim.Time
	for _, w := range ws {
		if w.End > last {
			last = w.End
		}
	}
	if last == 0 {
		return 0
	}
	return last.Add(myrinet.DetectLag + 8*retry + settleSlack)
}

// Payload layout: bytes 0-8 carry the latency stamp (the workload
// drivers' wire format), bytes 8-16 the global message id the
// exactly-once check and the spans key on. Content never affects
// timing, so the id leaves virtual time identical to fmbench's drives.
func stamp(buf []byte, at sim.Time, id int) {
	binary.LittleEndian.PutUint64(buf, uint64(at))
	binary.LittleEndian.PutUint64(buf[8:], uint64(id))
}

func stampOf(payload []byte) (sim.Time, int) {
	return sim.Time(binary.LittleEndian.Uint64(payload)), int(binary.LittleEndian.Uint64(payload[8:]))
}

// spans are the virtual-time instants of each message, kept in memory
// during a traced run and written out at the end.
type spans struct {
	call, ret, handled, due []sim.Time
}

func newSpans(messages int) *spans {
	return &spans{
		call:    make([]sim.Time, messages),
		ret:     make([]sim.Time, messages),
		handled: make([]sim.Time, messages),
		due:     make([]sim.Time, messages),
	}
}

// iteration is one set-up plus one simulated run of an instance.
type iteration struct {
	in  instance
	k   *sim.Kernel
	fab *myrinet.Fabric
	c   *cluster.FM // nil at the raw level
	g   inputs
	cfg core.Config
	p   *cost.Params

	lat    stats.Histogram
	series *stats.Series // soak only
	got    []int         // deliveries per destination rank
	times  []uint8       // deliveries per global message id, saturating
	badIDs int           // deliveries whose id names no message
	tr     *spans        // nil unless traced
	last   sim.Time      // raw level: final delivery instant
	rawBuf []byte        // raw level: the injectors' shared payload

	buildS, genS, setupS, runS float64
}

// setUp builds the machine and generates the inputs, timing each part;
// start is when this set-up began (process start for the first one).
func setUp(in instance, start time.Time, traced bool) *iteration {
	it := &iteration{in: in, cfg: core.DefaultConfig(), p: cost.Default()}
	spec := workload.ClosSpec(in.nodes)

	t := time.Now()
	if in.level == levelRaw {
		it.k = sim.NewKernel()
		it.fab = spec.Build(it.k, it.p)
	} else {
		it.c = cluster.NewFMFrom(spec.Build, it.cfg, it.p)
		it.k, it.fab = it.c.K, it.c.Fab
	}
	it.buildS = time.Since(t).Seconds()

	t = time.Now()
	n := it.fab.Nodes()
	it.g = in.generate(it.fab.Topology(), n)
	it.fab.HintRoutes(spec.RouteHint(n, it.g.messages))
	it.genS = time.Since(t).Seconds()

	// The exactly-once ledger and the spans are the benchmark's own
	// bookkeeping, not program set-up: their allocation is left out of
	// setupS.
	t = time.Now()
	it.got = make([]int, n)
	it.times = make([]uint8, it.g.messages)
	if traced && in.level != levelRaw {
		it.tr = newSpans(it.g.messages)
	}
	ledger := time.Since(t)
	switch in.level {
	case levelRaw:
		it.startRaw()
	case levelFM:
		it.startFM()
	case levelMPI:
		it.startMPI()
	case levelSoak:
		it.startSoak()
	}
	it.setupS = (time.Since(start) - ledger).Seconds()
	return it
}

// run simulates to quiescence and times it.
func (it *iteration) run() error {
	t := time.Now()
	err := it.k.RunAll()
	it.runS = time.Since(t).Seconds()
	return err
}

// elapsed is the virtual completion time under each driver's own
// definition: last delivery at the raw level, quiescence otherwise.
func (it *iteration) elapsed() sim.Duration {
	if it.in.level == levelRaw {
		return sim.Duration(it.last)
	}
	return sim.Duration(it.k.Now())
}

// delivered books one arrival of payload at rank dst.
func (it *iteration) delivered(dst int, payload []byte, now sim.Time) {
	it.got[dst]++
	_, id := stampOf(payload)
	if id < 0 || id >= len(it.times) {
		it.badIDs++
		return
	}
	if it.times[id] < 255 {
		it.times[id]++
	}
	if it.tr != nil {
		it.tr.handled[id] = now
	}
}

// --- raw level: DriveRaw's sink and uplink-paced injectors ---

type rawInjector struct {
	it   *iteration
	src  int
	next int
}

// Arrive implements myrinet.Sink.
func (it *iteration) Arrive(p *myrinet.Packet) {
	now := it.k.Now()
	it.last = now
	it.lat.Record(now.Sub(p.Injected))
	it.delivered(p.Dst, p.Payload, now)
	it.fab.Release(p)
}

func injectNext(a any) {
	in := a.(*rawInjector)
	it := in.it
	q := it.g.sends[in.src]
	if in.next >= q.ln {
		return
	}
	s := q.at(in.next)
	f := it.fab
	pkt := f.NewPacket()
	pkt.Src, pkt.Dst = in.src, s.Dst
	pkt.Type = myrinet.Data
	stamp(it.rawBuf, 0, it.g.base[in.src]+in.next)
	pkt.SetPayload(it.rawBuf)
	pkt.HeaderBytes = it.p.FMHeaderBytes
	in.next++
	free := f.Inject(pkt)
	if in.next < q.ln {
		if at := sim.Time(q.at(in.next).At); at > free {
			free = at
		}
	}
	it.k.AtArg(free, injectNext, in)
}

func (it *iteration) startRaw() {
	n := it.fab.Nodes()
	for i := 0; i < n; i++ {
		it.fab.Attach(i, it)
	}
	it.rawBuf = make([]byte, payloadSize)
	for src := 0; src < n; src++ {
		var at sim.Time
		if q := it.g.sends[src]; q.ln > 0 {
			at = sim.Time(q.at(0).At)
		}
		it.k.AtArg(at, injectNext, &rawInjector{it: it, src: src})
	}
}

// --- FM level: the closed-loop rank body of workload.DriveFM ---

func (it *iteration) startFM() {
	n := it.fab.Nodes()
	slab := make([]byte, n*payloadSize)
	for id := 0; id < n; id++ {
		id, buf := id, slab[id*payloadSize:(id+1)*payloadSize]
		it.c.Start(id, func(ep *core.Endpoint) { it.fmRank(ep, id, buf) })
	}
}

func (it *iteration) fmRank(ep *core.Endpoint, id int, buf []byte) {
	ep.RegisterHandler(0, func(src int, payload []byte) {
		now := ep.Now()
		at, _ := stampOf(payload)
		it.lat.Record(now.Sub(at))
		it.delivered(id, payload, now)
	})
	q, base, tr := it.g.sends[id], it.g.base[id], it.tr
	for j := 0; j < q.ln; j++ {
		s := q.at(j)
		now := ep.Now()
		stamp(buf, now, base+j)
		if tr != nil {
			tr.call[base+j] = now
		}
		if err := ep.Send(s.Dst, 0, buf); err != nil {
			panic(err)
		}
		if tr != nil {
			tr.ret[base+j] = ep.Now()
		}
		ep.Extract()
	}
	for it.got[id] < it.g.expect[id] || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
	}
}

// --- MPI level: the wildcard-receive rank body of workload.DriveMPI ---

// mpiTag is the application tag every message carries.
const mpiTag = 1

func (it *iteration) startMPI() {
	n := it.fab.Nodes()
	slab := make([]byte, n*payloadSize)
	for id := 0; id < n; id++ {
		id, buf := id, slab[id*payloadSize:(id+1)*payloadSize]
		it.c.Start(id, func(ep *core.Endpoint) { it.mpiRank(ep, id, n, buf) })
	}
}

func (it *iteration) mpiRank(ep *core.Endpoint, id, n int, buf []byte) {
	comm := mpi.NewWorld(ep, n, 0)
	pending := make([]*mpi.Request, it.g.expect[id])
	for i := range pending {
		pending[i] = comm.Irecv(mpi.AnySource, mpi.AnyTag)
	}
	q, base, tr := it.g.sends[id], it.g.base[id], it.tr
	for j := 0; j < q.ln; j++ {
		s := q.at(j)
		now := ep.Now()
		stamp(buf, now, base+j)
		if tr != nil {
			tr.call[base+j] = now
		}
		comm.Send(s.Dst, mpiTag, buf)
		if tr != nil {
			tr.ret[base+j] = ep.Now()
		}
	}
	for len(pending) > 0 {
		live := pending[:0]
		for _, req := range pending {
			if !req.Done() {
				live = append(live, req)
				continue
			}
			data, _ := comm.Wait(req)
			now := ep.Now()
			at, _ := stampOf(data)
			it.lat.Record(now.Sub(at))
			it.delivered(id, data, now)
		}
		pending = live
		if len(pending) > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	}
	for ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
	}
}

// --- soak level: the open-loop rank body of workload.SoakDriveFM ---

func (it *iteration) startSoak() {
	c := it.c
	c.Fab.ApplyFaults(it.g.windows)
	it.series = stats.NewSeries(it.in.horizon / soakWindows)
	for _, q := range it.g.sends {
		for j := 0; j < q.ln; j++ {
			it.series.Arrival(sim.Time(q.at(j).At))
		}
	}
	settle := settleAt(it.g.windows, it.cfg.RetryDelay)
	n := c.Fab.Nodes()
	slab := make([]byte, n*payloadSize)
	for id := 0; id < n; id++ {
		id, buf := id, slab[id*payloadSize:(id+1)*payloadSize]
		c.Start(id, func(ep *core.Endpoint) { it.soakRank(ep, id, buf, settle) })
	}
}

func (it *iteration) soakRank(ep *core.Endpoint, id int, buf []byte, settle sim.Time) {
	series := it.series
	var seenRetrans uint64
	poll := func() {
		if r := ep.Stats().Retransmits; r > seenRetrans {
			series.Retransmits(ep.Now(), r-seenRetrans)
			seenRetrans = r
		}
	}
	ep.RegisterHandler(0, func(src int, payload []byte) {
		now := ep.Now()
		at, _ := stampOf(payload)
		series.Delivery(now, now.Sub(at), len(payload))
		it.delivered(id, payload, now)
	})
	q, base, tr := it.g.sends[id], it.g.base[id], it.tr
	for j := 0; j < q.ln; j++ {
		s := q.at(j)
		for sim.Duration(ep.Now()) < s.At {
			d := s.At - sim.Duration(ep.Now())
			if d > settleQuantum {
				d = settleQuantum
			}
			ep.CPU().Advance(d)
			ep.Extract()
			poll()
		}
		stamp(buf, sim.Time(s.At), base+j)
		if tr != nil {
			tr.due[base+j] = sim.Time(s.At)
			tr.call[base+j] = ep.Now()
		}
		if err := ep.Send(s.Dst, 0, buf); err != nil {
			panic(err)
		}
		if tr != nil {
			tr.ret[base+j] = ep.Now()
		}
		ep.Extract()
		poll()
	}
	for it.got[id] < it.g.expect[id] || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
		poll()
	}
	for ep.Now() < settle {
		ep.CPU().Advance(settleQuantum)
		ep.Extract()
		poll()
	}
}

// latency is the run's per-message latency distribution: recorded
// directly by the closed-loop bodies, merged from the series windows for
// the soak, exactly as SoakDriveFM reports it.
func (it *iteration) latency() *stats.Histogram {
	if it.series == nil {
		return &it.lat
	}
	var h stats.Histogram
	for i := 0; i < it.series.Len(); i++ {
		h.Merge(&it.series.Window(i).Lat)
	}
	return &h
}
