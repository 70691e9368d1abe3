package main

import (
	"fmt"
	"hash/fnv"

	"fm/internal/core"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/metrics"
	"fm/internal/mpi"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
	"fm/internal/workload"
)

// failedMessages counts the messages not delivered exactly once: never
// delivered, delivered more than once, or arriving under an id no
// message has.
func (it *iteration) failedMessages() int {
	failed := it.badIDs
	for _, n := range it.times {
		if n != 1 {
			failed++
		}
	}
	return failed
}

// layerTotals is every layer's counters summed over the nodes.
type layerTotals struct {
	core  core.Stats
	lanai lanai.Stats
	lcp   lcp.Stats
	sbus  sbus.Stats
	fab   myrinet.Stats
	fault myrinet.FaultStats
}

func (it *iteration) totals() layerTotals {
	t := layerTotals{fab: it.fab.Stats(), fault: it.fab.FaultStats()}
	c := it.c
	if c == nil {
		return t
	}
	for i := range c.EPs {
		s := c.EPs[i].Stats()
		t.core.Sent += s.Sent
		t.core.Delivered += s.Delivered
		t.core.AcksSent += s.AcksSent
		t.core.AcksPiggybacked += s.AcksPiggybacked
		t.core.RejectsSent += s.RejectsSent
		t.core.NetBounces += s.NetBounces
		t.core.Retransmits += s.Retransmits
		t.core.Duplicates += s.Duplicates
		t.core.SendBlocks += s.SendBlocks

		d := c.Devs[i].Stats()
		t.lanai.Sent += d.Sent
		t.lanai.Delivered += d.Delivered
		t.lanai.HostDMABatches += d.HostDMABatches
		t.lanai.HostDMAPackets += d.HostDMAPackets
		t.lanai.NetStalls += d.NetStalls

		l := c.LCPs[i].Stats()
		t.lcp.Loops += l.Loops
		t.lcp.IdleWakes += l.IdleWakes

		b := c.Buses[i].Stats()
		t.sbus.PIOBytes += b.PIOBytes
		t.sbus.DMABytes += b.DMABytes
		t.sbus.StatusReads += b.StatusReads
	}
	return t
}

// fragments is how many FM frames one message occupies at the
// instance's level: MPI prepends its envelope and splits what does not
// fit one frame.
func (it *iteration) fragments() int {
	if it.in.level != levelMPI {
		return 1
	}
	per := it.cfg.FramePayload - mpi.HeaderBytes
	return (payloadSize + per - 1) / per
}

// verify checks the run's outputs against invariants every correct
// model satisfies, independent of timing, and returns the violated ones
// by name with their evidence. The per-rank receive counts are checked
// against workload.RecvCounts once the timed runs are over.
func (it *iteration) verify() []string {
	var bad []string
	fail := func(name, format string, args ...any) {
		bad = append(bad, name+": "+fmt.Sprintf(format, args...))
	}
	msgs := it.g.messages
	if f := it.failedMessages(); f != 0 {
		fail("exactly-once", "%d of %d messages not delivered exactly once", f, msgs)
	}
	if n := it.latency().Count(); n != uint64(msgs) {
		fail("latency-samples", "%d latency samples for %d messages", n, msgs)
	}
	t := it.totals()
	if s := it.fab.PendingStranded(); s != 0 {
		fail("none-stranded", "%d frames still stranded in the fabric", s)
	}
	if d := t.fault.Downs(); d != uint64(it.g.downs) || t.fault.Recoveries != d {
		fail("downs-recovered", "%d downs planned, %d began, %d recovered", it.g.downs, d, t.fault.Recoveries)
	}
	if it.in.level == levelRaw {
		if t.fab.Packets != uint64(msgs) {
			fail("fabric-packets", "fabric carried %d packets for %d messages", t.fab.Packets, msgs)
		}
		return bad
	}
	if want := uint64(msgs * it.fragments()); t.core.Delivered != want {
		fail("endpoint-delivered", "endpoints delivered %d frames, want %d", t.core.Delivered, want)
	}
	if t.core.Duplicates != 0 {
		fail("no-duplicates", "endpoints screened %d duplicates", t.core.Duplicates)
	}
	// Without faults every frame a LANai sends is one fabric packet;
	// fault bounces are frames the fabric itself turns around.
	if len(it.g.windows) == 0 && t.lanai.Sent != t.fab.Packets {
		fail("lanai-sent", "LANai sent %d frames, fabric carried %d", t.lanai.Sent, t.fab.Packets)
	}
	return bad
}

// model is the run's simulated result: deterministic for a given seed,
// identical for any change that only speeds the simulator up.
type model struct {
	ElapsedUs float64 `json:"elapsed_us"`
	P50Us     float64 `json:"lat_p50_us"`
	P99Us     float64 `json:"lat_p99_us"`
	Digest    string  `json:"digest"`
}

func us(d sim.Duration) float64 { return d.Microseconds() }

func (it *iteration) model() model {
	lat := it.latency()
	h := fnv.New64a()
	// %v prints the histogram's every bucket, so the digest covers the
	// full latency distribution, not only the percentiles shown.
	fmt.Fprintf(h, "%d|%d|%v", it.g.messages, it.elapsed(), *lat)
	return model{
		ElapsedUs: us(it.elapsed()),
		P50Us:     us(lat.Percentile(0.50)),
		P99Us:     us(lat.Percentile(0.99)),
		Digest:    fmt.Sprintf("%016x", h.Sum64()),
	}
}

// counters returns the per-layer counters of the run, read off every
// layer's own Stats after the simulation ended.
func (it *iteration) counters() map[string]float64 {
	t := it.totals()
	msgs := float64(it.g.messages)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	util := 0.0
	for i := 0; i < it.fab.NumSwitches(); i++ {
		sw := it.fab.SwitchAt(i)
		for p := 0; p < sw.Ports(); p++ {
			if u := sw.OutputUtilization(p); u > util {
				util = u
			}
		}
	}
	events := float64(it.k.EventsRun())
	return map[string]float64{
		"sim.events":               events,
		"sim.ns_per_event":         it.runS * 1e9 / events,
		"myrinet.packets":          float64(t.fab.Packets),
		"myrinet.packets_per_msg":  float64(t.fab.Packets+t.fault.Bounced) / msgs,
		"myrinet.wire_mb":          float64(t.fab.WireBytes) / metrics.MiB,
		"myrinet.port_util_max":    util,
		"myrinet.bounced":          float64(t.fault.Bounced),
		"myrinet.lost":             float64(t.fault.Lost),
		"myrinet.corrupted":        float64(t.fault.Corrupted),
		"lanai.sent":               float64(t.lanai.Sent),
		"lanai.delivered":          float64(t.lanai.Delivered),
		"lanai.dma_pkts_per_batch": ratio(t.lanai.HostDMAPackets, t.lanai.HostDMABatches),
		"lanai.net_stalls":         float64(t.lanai.NetStalls),
		"lcp.loops":                float64(t.lcp.Loops),
		"lcp.idle_wake_ratio":      ratio(t.lcp.IdleWakes, t.lcp.Loops),
		"sbus.pio_mb":              float64(t.sbus.PIOBytes) / metrics.MiB,
		"sbus.dma_mb":              float64(t.sbus.DMABytes) / metrics.MiB,
		"sbus.status_reads":        float64(t.sbus.StatusReads),
		"core.sent":                float64(t.core.Sent),
		"core.retransmits":         float64(t.core.Retransmits),
		"core.rejects_sent":        float64(t.core.RejectsSent),
		"core.send_blocks":         float64(t.core.SendBlocks),
		"core.ack_piggyback_ratio": ratio(t.core.AcksPiggybacked, t.core.AcksPiggybacked+t.core.AcksSent),
		"core.net_bounces":         float64(t.core.NetBounces),
	}
}

// recvCounts derives each rank's expected receive count from the
// pattern through workload.RecvCounts, independently of the drive's own
// bookkeeping.
func (in instance) recvCounts() []int {
	return workload.RecvCounts(in.pattern(), in.nodes)
}
