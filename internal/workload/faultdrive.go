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

// Fault driver: DriveFM under an installed fault plan. Two things
// change against the healthy driver. First, Elapsed is the instant the
// last message reached a handler (max over ranks), not kernel
// quiescence — fault toggles are scheduled events that outlast the
// traffic, so the kernel's final Now() would measure the plan, not the
// run. Second, termination: the healthy driver's exit condition (all
// expected messages received, nothing outstanding) assumes a reliable
// network, but a fault can bounce a standalone ack back to a rank that
// has already finished — acks hold no window slot, so nothing in that
// rank's exit condition covers them. Every rank therefore stays alive
// polling until a settle horizon past the last fault recovery, by which
// instant nothing can be in flight toward it anymore.

// FaultResult extends Result with the resilience counters of a faulted
// run.
type FaultResult struct {
	Result
	// Stats is every rank's endpoint counters summed: Retransmits,
	// NetBounces, RejectsSent/Received, Duplicates (must stay 0), etc.
	Stats core.Stats
	// Fault is the fabric's fault bookkeeping, merged across shard
	// replicas (each event is counted on exactly one replica).
	Fault myrinet.FaultStats
	// Stranded is the number of bounced frames still parked in the
	// fabric at the end of the run; any plan whose windows all close
	// must end with zero.
	Stranded int
}

// settleQuantum is the poll interval of a finished rank waiting out the
// settle horizon, and settleMargin is how far past the last fault
// recovery the run keeps every rank alive: enough for a final bounce to
// travel home, wait out a retry backoff, and be resent — several times
// over, since chained faults can bounce one frame more than once.
const (
	settleQuantum = 10 * sim.Microsecond
	settleSlack   = 200 * sim.Microsecond
)

// settleTime computes the instant by which a run under ws has quiesced:
// the last recovery, plus retry/backoff slack. Zero for an empty plan.
func settleTime(ws []myrinet.FaultWindow, retry sim.Duration) sim.Time {
	var last sim.Time
	for _, w := range ws {
		if w.End > last {
			last = w.End
		}
	}
	if last == 0 {
		return 0
	}
	// Routing trusts a recovered component only DetectLag after the
	// wire does, and stranded bounces are released at that detection
	// toggle — the settle horizon starts there.
	return last.Add(myrinet.DetectLag + 8*retry + settleSlack)
}

// The per-rank drive body is fmRank (drivecore.go) with the last-
// delivery hook and the settle horizon enabled: faulted runs measure
// Elapsed from the last handler dispatch, and every rank polls past the
// final recovery so late bounces drain.

// DriveFMFaults runs the pattern through the full FM stack with the
// compiled fault timeline installed on the fabric. An empty timeline
// reduces to DriveFM's behavior plus the last-delivery Elapsed
// definition. Panics if any message goes undelivered or any frame stays
// stranded — a plan whose windows all close guarantees neither happens.
func DriveFMFaults(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int, ws []myrinet.FaultWindow) FaultResult {
	c := cluster.NewFMFrom(spec.Build, cfg, p)
	n := c.Fab.Nodes()
	c.Fab.ApplyFaults(ws)

	base, sends, expect, maxSize := prepare(spec, pat, size, c.Fab)
	res := FaultResult{Result: base}
	settleAt := settleTime(ws, cfg.RetryDelay)

	slab := make([]byte, n*maxSize)
	lasts := make([]sim.Time, n)
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, sends[id], expect[id], size, slab[id*maxSize:(id+1)*maxSize],
				&res.Latency, &lasts[id], settleAt)
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	var last sim.Time
	for _, t := range lasts {
		if t > last {
			last = t
		}
	}
	res.Elapsed = sim.Duration(last)
	for _, ep := range c.EPs {
		mergeCoreStats(&res.Stats, ep.Stats())
	}
	res.Fault = c.Fab.FaultStats()
	res.Stranded = c.Fab.PendingStranded()
	checkFaultRun(&res, spec.Name, pat.Name())
	checkPool(pat.Name(), spec.Name, c.Fab)
	return res
}

// DriveFMFaultsSharded is DriveFMFaults split over `shards` kernels.
// Every replica installs the identical timeline: toggles fire at the
// same virtual instants on each replica's own kernel, so the replicas'
// routers never disagree and cross-shard merges stay deterministic.
func DriveFMFaultsSharded(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int, ws []myrinet.FaultWindow, shards int) FaultResult {
	if shards <= 1 {
		return DriveFMFaults(spec, cfg, p, pat, size, ws)
	}
	c, err := cluster.NewFMShardedFrom(spec.Build, cfg, p, shards)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", spec.Name, err))
	}
	n := len(c.EPs)
	for _, f := range c.Fabs {
		f.ApplyFaults(ws)
	}

	base, sends, expect, maxSize := prepare(spec, pat, size, c.Fabs...)
	res := FaultResult{Result: base}
	settleAt := settleTime(ws, cfg.RetryDelay)

	slab := make([]byte, n*maxSize)
	lasts := make([]sim.Time, n)
	hists := make([]stats.Histogram, shards)
	for id := 0; id < n; id++ {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, sends[id], expect[id], size, slab[id*maxSize:(id+1)*maxSize],
				&hists[c.Part.NodeShard[id]], &lasts[id], settleAt)
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	mergeLatency(&res.Result, hists)
	var last sim.Time
	for _, t := range lasts {
		if t > last {
			last = t
		}
	}
	res.Elapsed = sim.Duration(last)
	res.Shards = c.Group.Stats()
	for _, ep := range c.EPs {
		mergeCoreStats(&res.Stats, ep.Stats())
	}
	for _, f := range c.Fabs {
		res.Fault.Merge(f.FaultStats())
		res.Stranded += f.PendingStranded()
	}
	checkFaultRun(&res, spec.Name, pat.Name())
	checkPool(pat.Name(), spec.Name, c.Fabs...)
	return res
}

// mergeCoreStats sums one endpoint's counters into the aggregate.
func mergeCoreStats(dst *core.Stats, s core.Stats) {
	dst.Sent += s.Sent
	dst.Delivered += s.Delivered
	dst.AcksSent += s.AcksSent
	dst.AcksPiggybacked += s.AcksPiggybacked
	dst.SeqsAcked += s.SeqsAcked
	dst.RejectsSent += s.RejectsSent
	dst.RejectsReceived += s.RejectsReceived
	dst.NetBounces += s.NetBounces
	dst.Retransmits += s.Retransmits
	dst.Duplicates += s.Duplicates
	dst.SendBlocks += s.SendBlocks
}

// checkFaultRun enforces the reliability contract after a faulted run:
// everything delivered exactly once, nothing stranded in the fabric.
func checkFaultRun(res *FaultResult, fabric, pattern string) {
	if int(res.Stats.Delivered) != res.Messages {
		panic(fmt.Sprintf("workload: %s on %s under faults delivered %d/%d messages",
			pattern, fabric, res.Stats.Delivered, res.Messages))
	}
	if res.Stranded != 0 {
		panic(fmt.Sprintf("workload: %s on %s under faults left %d frames stranded",
			pattern, fabric, res.Stranded))
	}
	if res.Stats.Duplicates != 0 {
		panic(fmt.Sprintf("workload: %s on %s under faults delivered %d duplicates",
			pattern, fabric, res.Stats.Duplicates))
	}
}
