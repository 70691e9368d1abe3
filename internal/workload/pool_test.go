package workload

import (
	"fmt"
	"strings"
	"testing"

	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// poolPanic runs checkPool and returns its panic message, "" if none.
func poolPanic(fabs ...*myrinet.Fabric) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	checkPool("leak", "clos-16", fabs...)
	return ""
}

// TestCheckPoolCatchesLeakedPacket: a packet drawn from the pool and
// never released trips the end-of-run conservation check with a named
// message, while a packet drawn on one shard replica and released on
// another balances across the replicas.
func TestCheckPoolCatchesLeakedPacket(t *testing.T) {
	p := cost.Default()
	spec := ClosSpec(16)
	a, b := spec.Build(sim.NewKernel(), p), spec.Build(sim.NewKernel(), p)
	if msg := poolPanic(a, b); msg != "" {
		t.Fatalf("fresh fabrics trip the check: %s", msg)
	}
	pkt := a.NewPacket()
	msg := poolPanic(a, b)
	if !strings.Contains(msg, "leak on clos-16 ended with 1 packets never released") {
		t.Fatalf("leaked packet: got panic %q", msg)
	}
	b.Release(pkt)
	if msg := poolPanic(a, b); msg != "" {
		t.Fatalf("cross-replica release trips the check: %s", msg)
	}
}
