package workload

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/mpi"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// Result is one pattern driven over one fabric at one stack level, with
// the shared measurement set: message/byte totals, completion time,
// topological hop cost, and the full per-message latency distribution.
type Result struct {
	Pattern string
	Fabric  string
	// Messages is the number of messages the pattern generated (and the
	// driver verified delivered).
	Messages int
	// PayloadBytes is the total payload carried, per-send size
	// overrides included.
	PayloadBytes int64
	// Elapsed is the virtual time of the last delivery (raw level) or
	// of cluster quiescence (FM/MPI levels).
	Elapsed sim.Duration
	// MeanHops is the mean switch crossings per message, a pure
	// topology property of the pattern's (src, dst) pairs.
	MeanHops float64
	// Latency is the per-message delivery-latency distribution:
	// injection to tail delivery at the raw level; send call to the
	// instant the receiving rank observes the message at the FM and MPI
	// levels (handler dispatch and, for MPI, matching and reassembly
	// included). The raw driver records every message; the FM and MPI
	// drivers stamp the send instant into the payload, so messages
	// shorter than the 8-byte timestamp cannot carry one and are not
	// recorded — Latency.Count() < Messages signals such a run.
	Latency stats.Histogram
	// Shards holds per-shard runtime counters (events run, cross-shard
	// posts, barrier windows, busy wall time) when the drive was split
	// across shard kernels; nil for single-kernel runs.
	Shards []sim.ShardStats
}

// MBps returns the delivered payload bandwidth in MB/s (MiB).
func (r *Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.PayloadBytes) / metrics.MiB / r.Elapsed.Seconds()
}

// --- Raw fabric driver ---

// rawDrive is the shared state of one DriveRaw: the sink counts
// deliveries, records latency, and recycles packets; per-source
// injectors pace themselves off the uplink-free instant. Both run as
// argument-style events and pooled packets, so a run's steady state
// allocates nothing.
type rawDrive struct {
	k         *sim.Kernel
	f         *myrinet.Fabric
	payload   []byte
	size      int // default payload size
	delivered int
	last      sim.Time
	lat       *stats.Histogram
}

// Arrive implements myrinet.Sink.
func (dr *rawDrive) Arrive(p *myrinet.Packet) {
	dr.delivered++
	dr.last = dr.k.Now()
	dr.lat.Record(dr.k.Now().Sub(p.Injected))
	dr.f.Release(p)
}

// rawInjector feeds one source's send list into the fabric: each next
// injection fires when the uplink frees, or at the send's At instant if
// that is later.
type rawInjector struct {
	dr    *rawDrive
	hdr   int
	src   int
	sends sendSeq
	next  int
}

func injectNext(a any) {
	in := a.(*rawInjector)
	if in.next >= in.sends.Len() {
		return
	}
	dr := in.dr
	s := in.sends.At(in.next)
	pkt := dr.f.NewPacket()
	pkt.Src, pkt.Dst = in.src, s.Dst
	pkt.Type = myrinet.Data
	pkt.SetPayload(dr.payload[:sendSize(s, dr.size)])
	pkt.HeaderBytes = in.hdr
	in.next++
	srcDone := dr.f.Inject(pkt)
	if in.next < in.sends.Len() {
		if at := sim.Time(in.sends.At(in.next).At); at > srcDone {
			srcDone = at
		}
	}
	dr.k.AtArg(srcDone, injectNext, in)
}

// DriveRaw runs the pattern over a fresh fabric at the raw network
// level (no host stack, so the fabric itself is the bottleneck): every
// source injects its send list back-to-back, each next injection paced
// by the instant the source's uplink frees (or the send's At time).
// Frames carry the FM header size, size bytes of payload by default.
func DriveRaw(spec FabricSpec, p *cost.Params, pat Pattern, size int) Result {
	k := sim.NewKernel()
	f := spec.Build(k, p)
	n := f.Nodes()

	res, sends, _, maxSize := prepare(spec, pat, size, f)

	dr := &rawDrive{k: k, f: f, payload: make([]byte, maxSize), size: size, lat: &res.Latency}
	for i := 0; i < n; i++ {
		f.Attach(i, dr)
	}
	for src := 0; src < n; src++ {
		var at sim.Time
		if q := sends[src]; q.Len() > 0 {
			at = sim.Time(q.At(0).At)
		}
		k.AtArg(at, injectNext, &rawInjector{dr: dr, hdr: p.FMHeaderBytes, src: src, sends: sends[src]})
	}
	if err := k.RunAll(); err != nil {
		panic(err)
	}
	if dr.delivered != res.Messages {
		panic(fmt.Sprintf("workload: %s on %s delivered %d/%d packets",
			pat.Name(), spec.Name, dr.delivered, res.Messages))
	}
	checkPool(pat.Name(), spec.Name, f)
	res.Elapsed = sim.Duration(dr.last)
	return res
}

// --- FM-stack driver ---

// DriveFM runs the pattern through the complete FM 1.0 stack (hosts,
// SBus, LANai, LCP, flow control on every node) on the spec's fabric
// using handler 0: every rank issues its send list as fast as the
// layers allow, draining incoming messages while sending, then extracts
// until it has received its expected share and its outstanding frames
// are acknowledged.
func DriveFM(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int) Result {
	c := cluster.NewFMFrom(spec.Build, cfg, p)
	n := c.Fab.Nodes()

	res, sends, expect, maxSize := prepare(spec, pat, size, c.Fab)

	// One pre-sized slab instead of one send buffer per rank: at scale
	// (the 4096-node sweep) per-rank allocations are pure overhead.
	slab := make([]byte, n*maxSize)
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, sends[id], expect[id], size, slab[id*maxSize:(id+1)*maxSize],
				&res.Latency, nil, 0)
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	checkPool(pat.Name(), spec.Name, c.Fab)
	res.Elapsed = sim.Duration(c.K.Now())
	return res
}

// --- MPI driver ---

// mpiDriveTag is the application tag DriveMPI stamps on every message.
const mpiDriveTag = 1

// DriveMPI runs the pattern through the MPI layer on the full FM stack:
// every rank posts wildcard receives for its expected share, issues its
// send list with blocking tagged sends, then completes receives as
// their messages arrive (matching and reassembly included) and drains
// its outstanding FM frames. The config's frame size bounds the MPI
// fragment size, so payloads above one frame pay segmentation exactly
// as applications would.
func DriveMPI(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int) Result {
	c := cluster.NewFMFrom(spec.Build, cfg, p)
	n := c.Fab.Nodes()

	res, sends, expect, maxSize := prepare(spec, pat, size, c.Fab)

	slab := make([]byte, n*maxSize)
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			comm := mpi.NewWorld(ep, n, 0)
			pending := make([]*mpi.Request, expect[id])
			for i := range pending {
				pending[i] = comm.Irecv(mpi.AnySource, mpi.AnyTag)
			}
			buf := slab[id*maxSize : (id+1)*maxSize]
			q := sends[id]
			for j := 0; j < q.Len(); j++ {
				s := q.At(j)
				if s.At > 0 {
					waitUntil(ep, s.At)
				}
				msg := buf[:sendSize(s, size)]
				stamp(msg, ep.Now())
				comm.Send(s.Dst, mpiDriveTag, msg)
			}
			// Complete receives as they land: sweeping Done requests
			// keeps the latency observation close to each message's
			// actual arrival instead of the end of the run.
			for len(pending) > 0 {
				live := pending[:0]
				for _, req := range pending {
					if !req.Done() {
						live = append(live, req)
						continue
					}
					data, _ := comm.Wait(req)
					if at, ok := stampedAt(data); ok {
						res.Latency.Record(ep.Now().Sub(at))
					}
				}
				pending = live
				if len(pending) > 0 {
					ep.WaitIncoming()
					ep.Extract()
				}
			}
			// Outstanding frames may still be rejected under incast
			// overload; keep extracting so they retransmit.
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	checkPool(pat.Name(), spec.Name, c.Fab)
	res.Elapsed = sim.Duration(c.K.Now())
	return res
}
