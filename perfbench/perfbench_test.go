package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/workload"
)

// small returns each workload's shape at a size a test can afford.
func small(s seeds) []instance {
	return []instance{
		{name: "fm-alltoall", level: levelFM, nodes: 16, seeds: s},
		{name: "raw-alltoall", level: levelRaw, nodes: 64, seeds: s},
		{name: "soak-faults", level: levelSoak, nodes: 16, horizon: sim.Millisecond, seeds: s},
		{name: "mpi-alltoall", level: levelMPI, nodes: 16, seeds: s},
	}
}

// fmbench drives the instance through the workload package's own
// driver, the traffic fmbench times.
func fmbench(in instance, windows int) workload.Result {
	spec := workload.ClosSpec(in.nodes)
	p, cfg := cost.Default(), core.DefaultConfig()
	switch in.level {
	case levelRaw:
		return workload.DriveRaw(spec, p, in.pattern(), payloadSize)
	case levelFM:
		return workload.DriveFM(spec, cfg, p, in.pattern(), payloadSize)
	case levelMPI:
		return workload.DriveMPI(spec, cfg, p, in.pattern(), payloadSize)
	}
	topo := spec.Build(sim.NewKernel(), p).Topology()
	hUs := int64(in.horizon / sim.Microsecond)
	ws, err := workload.RandomFaultPlan(in.seeds.Fault, topo, soakFaults, hUs).Windows(topo, hUs)
	if err != nil {
		panic(err)
	}
	if len(ws) != windows {
		panic("fault plan differs from the benchmark's")
	}
	src := in.pattern().(workload.Source)
	return workload.SoakDriveFM(spec, cfg, p, src, payloadSize,
		workload.SoakOptions{Width: in.horizon / soakWindows, Faults: ws}).Result
}

// The benchmark's drive bodies must run exactly the traffic the
// workload drivers run: same messages, same virtual completion time,
// same latency histogram, under the same fault windows, traced or not.
func TestDrivesMatchWorkloadDrivers(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, in := range small(deriveSeeds(seed)) {
			for _, traced := range []bool{false, true} {
				it, err := runOnce(in, time.Now(), traced)
				if err != nil {
					t.Fatalf("%s seed %d: %v", in.name, seed, err)
				}
				if v := it.verify(); len(v) > 0 {
					t.Errorf("%s seed %d: invariants violated: %v", in.name, seed, v)
				}
				if got, want := it.got, in.recvCounts(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d: per-rank receives %v, RecvCounts %v", in.name, seed, got, want)
				}
				ref := fmbench(in, len(it.g.windows))
				if it.g.messages != ref.Messages {
					t.Errorf("%s seed %d: %d messages, driver %d", in.name, seed, it.g.messages, ref.Messages)
				}
				if it.elapsed() != ref.Elapsed {
					t.Errorf("%s seed %d traced=%v: elapsed %v, driver %v", in.name, seed, traced, it.elapsed(), ref.Elapsed)
				}
				if !reflect.DeepEqual(*it.latency(), ref.Latency) {
					t.Errorf("%s seed %d traced=%v: latency %s, driver %s", in.name, seed, traced,
						it.latency().Summary(), ref.Latency.Summary())
				}
			}
		}
	}
}

// The soak instance must actually exercise the fault path, or its
// invariants check nothing.
func TestSoakExercisesFaults(t *testing.T) {
	in := small(deriveSeeds(1))[2]
	it, err := runOnce(in, time.Now(), false)
	if err != nil {
		t.Fatal(err)
	}
	c := it.counters()
	if it.g.downs == 0 || c["myrinet.bounced"] == 0 || c["core.retransmits"] == 0 {
		t.Errorf("soak saw %d downs, %v bounces, %v retransmits; want all positive",
			it.g.downs, c["myrinet.bounced"], c["core.retransmits"])
	}
}

// Each check must fail on the defect it names.
func TestVerifyNamesViolations(t *testing.T) {
	in := small(deriveSeeds(1))[0]
	it, err := runOnce(in, time.Now(), false)
	if err != nil {
		t.Fatal(err)
	}
	it.times[3] = 2
	it.lat.Record(0)
	got := it.verify()
	want := []string{"exactly-once", "latency-samples"}
	if len(got) != len(want) {
		t.Fatalf("verify = %v, want %v", got, want)
	}
	for i, w := range want {
		if len(got[i]) < len(w) || got[i][:len(w)] != w {
			t.Errorf("violation %d = %q, want %s", i, got[i], w)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var catalog []string
	for _, w := range workloads {
		catalog = append(catalog, w.name)
	}
	if !reflect.DeepEqual(names, catalog) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, catalog)
	}

	in := small(deriveSeeds(1))[2]
	ph := measure(in, 0, false, false)
	tr, prof, err := profiled(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for k, m := range printed {
			got[k] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: program prints %v, BENCHMARK.json lists %v", kind, keys(got), keys(want))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(&ph, 1))
	layer, err := layerMetrics(&ph, &tr, prof)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", spec.PerLayer, layer)
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" ("+v+")")
	}
	sort.Strings(out)
	return out
}

func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"fm/internal/ring.(*Ring[go.shape.*uint8]).Pop", "fm/internal/lanai.(*Device).x"}, "ring"},
		{[]string{"hash/fnv.(*sum64a).Write", "fm/internal/myrinet.(*Packet).checksum"}, "myrinet"},
		{[]string{"slices.insertionSortCmpFunc[go.shape.struct { fm/internal/sim.at fm/internal/sim.Time }]",
			"fm/internal/sim.(*ladder).refill"}, "sim"},
		{[]string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess1_fast64",
			"fm/internal/core.(*Endpoint).process"}, "core"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.futex", "runtime.futexsleep"}, "runtime.sched"},
		{[]string{"runtime.chanrecv", "fm/internal/sim.(*Proc).block"}, "runtime.sched"},
		{[]string{"gogo", "runtime.schedule"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "fm/internal/mpi.(*Comm).Irecv"}, "runtime.malloc"},
		{[]string{"main.(*iteration).delivered"}, "perfbench"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime.goexit"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}
