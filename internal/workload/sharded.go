package workload

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// Sharded drivers: the same measurements as DriveRaw / DriveFM, with
// the single simulation partitioned across N shard kernels (leaf group
// per shard, conservative lookahead = SwitchLatency; see the sim and
// myrinet shard runtimes). A shards value of 1 delegates to the
// single-kernel driver verbatim, so `-shards 1` is byte-identical to
// the unsharded path by construction.
//
// For a fixed shard count the run is deterministic — boundary events
// merge in a canonical order — but a sharded run is not required to
// reproduce the single-kernel timeline exactly: under contention the
// single kernel grants switch output ports in global injection order,
// while shards grant them in merged head-arrival order. Uncontended
// traffic is identical; contended aggregates differ within the
// reservation-order ambiguity the model already has.

// shardedFabrics builds one fabric replica per shard and wires the
// cross-shard continuation path. It panics on an unsupported shard
// count: drivers are called after fmbench's validation, so reaching
// this with a bad count is a programming error.
func shardedFabrics(spec FabricSpec, p *cost.Params, g *sim.ShardGroup) ([]*myrinet.Fabric, *myrinet.Partition) {
	fabs := make([]*myrinet.Fabric, g.Shards())
	for s := range fabs {
		fabs[s] = spec.Build(g.Shard(s).Kernel(), p)
	}
	part, err := fabs[0].Topology().Partition(g.Shards())
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", spec.Name, err))
	}
	for s := range fabs {
		s := s
		fabs[s].SetShard(part, s, func(owner int, at sim.Time, pkt *myrinet.Packet) {
			g.Shard(s).Post(owner, at, fabs[owner].ResumeCross, pkt)
		})
	}
	return fabs, part
}

// mergeLatency folds per-shard histograms into the result in shard
// order (bucket merging is order-independent, but a fixed order keeps
// the fingerprint canonical).
func mergeLatency(res *Result, hists []stats.Histogram) {
	for i := range hists {
		res.Latency.Merge(&hists[i])
	}
}

// DriveRawSharded is DriveRaw split over `shards` kernels: every
// source's injector chain runs on the shard owning the source, sinks
// count deliveries on the shard owning the destination, and packet
// heads crossing shard boundaries travel as timestamped inter-shard
// events.
func DriveRawSharded(spec FabricSpec, p *cost.Params, pat Pattern, size, shards int) Result {
	if shards <= 1 {
		return DriveRaw(spec, p, pat, size)
	}
	g := sim.NewShardGroup(shards, p.SwitchLatency)
	fabs, part := shardedFabrics(spec, p, g)
	n := fabs[0].Nodes()

	res, sends, _, maxSize := prepare(spec, pat, size, fabs...)

	// One shared read-only payload buffer; per-shard drive state so no
	// counter is touched by two kernels.
	payload := make([]byte, maxSize)
	hists := make([]stats.Histogram, shards)
	drs := make([]*rawDrive, shards)
	for s := range drs {
		drs[s] = &rawDrive{k: g.Shard(s).Kernel(), f: fabs[s], payload: payload, size: size, lat: &hists[s]}
	}
	for id := 0; id < n; id++ {
		s := part.NodeShard[id]
		fabs[s].Attach(id, drs[s])
	}
	for src := 0; src < n; src++ {
		s := part.NodeShard[src]
		var at sim.Time
		if q := sends[src]; q.Len() > 0 {
			at = sim.Time(q.At(0).At)
		}
		g.Shard(s).Kernel().AtArg(at, injectNext, &rawInjector{dr: drs[s], hdr: p.FMHeaderBytes, src: src, sends: sends[src]})
	}
	if err := g.Run(); err != nil {
		panic(err)
	}

	delivered := 0
	var last sim.Time
	for _, dr := range drs {
		delivered += dr.delivered
		if dr.last > last {
			last = dr.last
		}
	}
	if delivered != res.Messages {
		panic(fmt.Sprintf("workload: %s on %s delivered %d/%d packets",
			pat.Name(), spec.Name, delivered, res.Messages))
	}
	checkPool(pat.Name(), spec.Name, fabs...)
	mergeLatency(&res, hists)
	res.Elapsed = sim.Duration(last)
	res.Shards = g.Stats()
	return res
}

// DriveFMSharded is DriveFM split over `shards` kernels: each rank's
// full stack (host, SBus, LANai, LCP, flow control) lives on the shard
// owning its leaf, and only fabric hops between shards cross the
// barrier.
func DriveFMSharded(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size, shards int) Result {
	if shards <= 1 {
		return DriveFM(spec, cfg, p, pat, size)
	}
	c, err := cluster.NewFMShardedFrom(spec.Build, cfg, p, shards)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", spec.Name, err))
	}
	n := len(c.EPs)

	res, sends, expect, maxSize := prepare(spec, pat, size, c.Fabs...)

	// The slab is shared across shards but each rank writes only its
	// own disjoint slice; latency histograms are per shard and merged
	// after the run.
	slab := make([]byte, n*maxSize)
	hists := make([]stats.Histogram, shards)
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, sends[id], expect[id], size, slab[id*maxSize:(id+1)*maxSize],
				&hists[c.Part.NodeShard[id]], nil, 0)
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	checkPool(pat.Name(), spec.Name, c.Fabs...)
	mergeLatency(&res, hists)
	res.Elapsed = sim.Duration(c.Group.Now())
	res.Shards = c.Group.Stats()
	return res
}
