// Command perfbench is the repository's benchmark: it times the FM
// simulator on four fixed workloads, checks every run's outputs against
// exact invariants, and with -trace 1 attributes host time to the
// simulator's layers. README.md lists the workloads, the metrics and
// which end-to-end metric each layer metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fm-alltoall --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// host metadata, the seeds and the simulated (model) results.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"fm/internal/sim"
	"fm/internal/stats"
)

// processStart anchors the first set-up: setup_s of a run's first
// iteration counts from process start to the first simulated event.
var processStart = time.Now()

// minIterations keeps a median meaningful when one iteration outlasts
// the requested run length.
const minIterations = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	seeds    seeds
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var opt options
	var trace int
	var arrival, dest, fault uint64
	fl.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fl.Uint64Var(&opt.seed, "seed", 1, "run seed; the arrival, destination and fault seeds derive from it (held-out value: 2)")
	fl.Float64Var(&opt.seconds, "seconds", 10, "host seconds to measure for")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced variant: per-layer metrics, CPU profile and virtual spans")
	fl.Uint64Var(&arrival, "arrival-seed", 0, "Poisson arrival seed (0: derived from -seed)")
	fl.Uint64Var(&dest, "dest-seed", 0, "uniform-random destination seed (0: derived from -seed)")
	fl.Uint64Var(&fault, "fault-seed", 0, "fault-plan seed (0: derived from -seed)")
	if err := fl.Parse(args); err != nil {
		return opt, err
	}
	if fl.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if _, ok := lookup(opt.workload); !ok {
		return opt, fmt.Errorf("unknown -workload %q (valid: %s)", opt.workload, strings.Join(names, ", "))
	}
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("-seconds %v must be positive", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	opt.trace = trace == 1
	opt.seeds = deriveSeeds(opt.seed)
	for _, o := range []struct {
		v   uint64
		dst *uint64
	}{{arrival, &opt.seeds.Arrival}, {dest, &opt.seeds.Dest}, {fault, &opt.seeds.Fault}} {
		if o.v != 0 {
			*o.dst = o.v
		}
	}
	return opt, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is a sequence of iterations measured under one setting.
type phase struct {
	msgsPerS, setupS, buildS, genS   []float64
	gcCycles, allocMB, mallocsPerMsg []float64
	attempted, failed, iterations    int
	violations                       []string
	gots                             [][]int // per-rank receive counts of each iteration
	first                            *model
	counters                         map[string]float64 // the last iteration's layer counters
	spans                            *spans             // the last traced iteration's spans
	soak                             bool
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	in, _ := lookup(opt.workload)
	in.seeds = opt.seeds

	var ph, traced phase
	var prof []byte
	if !opt.trace {
		ph = measure(in, opt.seconds, false, true)
	} else {
		// The untraced half gives the counters and the baseline the
		// tracing overhead is measured against; the traced half runs
		// under the CPU profiler with virtual spans recorded.
		ph = measure(in, opt.seconds/2, false, true)
		traced, prof, err = profiled(in, opt.seconds/2)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rssMB := peakRSSMB()

	recv := in.recvCounts()
	all := []*phase{&ph}
	if opt.trace {
		all = append(all, &traced)
	}
	res := result{Metrics: map[string]metric{}}
	var violations []string
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		violations = append(violations, p.violations...)
		for i, got := range p.gots {
			for r, want := range recv {
				if got[r] != want {
					violations = append(violations, fmt.Sprintf(
						"recv-counts: iteration %d: rank %d received %d, workload.RecvCounts says %d", i, r, got[r], want))
					break
				}
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}

	var files []string
	switch {
	case !opt.trace:
		res.Metrics = endToEnd(&ph, rssMB)
	case ph.first != nil && traced.first != nil:
		if ph.first.Digest != traced.first.Digest {
			violations = append(violations, "deterministic: traced run's model differs from the untraced run's")
		}
		if files, err = writeTrace(opt, in, &traced, prof); err != nil {
			violations = append(violations, "trace-output: "+err.Error())
		}
		if res.Metrics, err = layerMetrics(&ph, &traced, prof); err != nil {
			violations = append(violations, "trace-profile: "+err.Error())
		}
	}
	res.Correct = len(violations) == 0 && res.Failed == 0

	meta := map[string]any{
		"workload":   in.name,
		"seed":       opt.seed,
		"seeds":      in.seeds,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"iterations": ph.iterations + traced.iterations,
		"msgs_per_s": ph.msgsPerS,
		"setup_s":    ph.setupS,
		"model":      ph.first,
		"files":      files,
		"violations": violations,
	}
	line, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, v := range violations {
			fmt.Fprintln(stderr, "perfbench: invariant violated:", v)
		}
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "perfbench: %d of %d messages failed\n", res.Failed, res.Attempted)
		}
		return 1
	}
	return 0
}

// profiled measures traced iterations under the CPU profiler and
// returns the profile.
func profiled(in instance, seconds float64) (phase, []byte, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phase{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph := measure(in, seconds, true, false)
	pprof.StopCPUProfile()
	return ph, prof.Bytes(), nil
}

// endToEnd is the -trace 0 metric set: host-time throughput, set-up
// time and peak memory.
func endToEnd(ph *phase, rssMB float64) map[string]metric {
	return map[string]metric{
		"msgs_per_s":  {median(ph.msgsPerS), "1/s"},
		"setup_s":     {median(ph.setupS), "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

// measure runs iterations of in for at least seconds of host time (and
// at least minIterations), each a fresh set-up and a full simulation.
func measure(in instance, seconds float64, traced, first bool) phase {
	var ph phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minIterations || time.Now().Before(deadline); i++ {
		start := processStart
		if !first || i > 0 {
			// Every iteration starts from a collected heap, so one
			// iteration's garbage is not charged to the next.
			runtime.GC()
			start = time.Now()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		it, err := runOnce(in, start, traced)
		runtime.ReadMemStats(&after)
		ph.iterations++
		if err != nil {
			msgs := 1
			if it != nil && it.g.messages > 0 {
				msgs = it.g.messages
			}
			ph.attempted += msgs
			ph.failed += msgs
			ph.violations = append(ph.violations, "run: "+err.Error())
			return ph
		}
		msgs := it.g.messages
		failed := it.failedMessages()
		ph.attempted += msgs
		ph.failed += failed
		for _, v := range it.verify() {
			ph.violations = append(ph.violations, fmt.Sprintf("iteration %d: %s", i, v))
		}
		m := it.model()
		if ph.first == nil {
			ph.first = &m
		} else if m != *ph.first {
			ph.violations = append(ph.violations, fmt.Sprintf(
				"deterministic: iteration %d model %+v differs from iteration 0's %+v", i, m, *ph.first))
		}
		ph.gots = append(ph.gots, it.got)
		ph.msgsPerS = append(ph.msgsPerS, float64(msgs-failed)/it.runS)
		ph.setupS = append(ph.setupS, it.setupS)
		ph.buildS = append(ph.buildS, it.buildS)
		ph.genS = append(ph.genS, it.genS)
		ph.gcCycles = append(ph.gcCycles, float64(after.NumGC-before.NumGC))
		ph.allocMB = append(ph.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		ph.mallocsPerMsg = append(ph.mallocsPerMsg, float64(after.Mallocs-before.Mallocs)/float64(msgs))
		// Keep what the report needs, not the iteration: holding its
		// cluster across the next set-up would inflate peak_rss_mb.
		ph.counters, ph.spans, ph.soak = it.counters(), it.tr, in.level == levelSoak
		if len(ph.violations) > 0 {
			return ph
		}
	}
	return ph
}

// runOnce sets up and runs one iteration, turning a panic in set-up or
// the simulation into an error.
func runOnce(in instance, start time.Time, traced bool) (it *iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	it = setUp(in, start, traced)
	if err := it.run(); err != nil {
		return it, err
	}
	return it, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// commit names the revision the binary was built from, when the build
// saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the simulator's sources (go.mod and internal/),
// identifying the code under test where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// spanHists folds a traced iteration's spans into histograms: time
// inside Send, send return to handler dispatch, and for the open-loop
// soak how late each send was issued against its scheduled arrival.
// Send pushes the frame into the LANai send queue before its trailing
// SBus control write, which can queue behind DMA traffic, so a message
// can reach its handler before its Send returns; such deliver spans
// count as zero.
func spanHists(tr *spans, soak bool) (send, deliver, late stats.Histogram) {
	if tr == nil {
		return
	}
	pos := func(d sim.Duration) sim.Duration { return max(d, 0) }
	for i := range tr.call {
		send.Record(pos(tr.ret[i].Sub(tr.call[i])))
		deliver.Record(pos(tr.handled[i].Sub(tr.ret[i])))
		if soak {
			late.Record(pos(tr.call[i].Sub(tr.due[i])))
		}
	}
	return
}

// traceDir is where a traced run writes its profile and spans, relative
// to the repository root the benchmark runs from.
const traceDir = ".bench_build/perfbench"

// writeTrace writes the CPU profile and the last traced iteration's
// spans (one CSV row per message, virtual picoseconds).
func writeTrace(opt options, in instance, traced *phase, prof []byte) ([]string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", in.name, opt.seed))
	files := []string{base + ".cpu.pprof"}
	if err := os.WriteFile(files[0], prof, 0o644); err != nil {
		return nil, err
	}
	tr := traced.spans
	if tr == nil {
		return files, nil
	}
	var b bytes.Buffer
	b.WriteString("id,due_ps,call_ps,return_ps,handled_ps\n")
	for i := range tr.call {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", i, tr.due[i], tr.call[i], tr.ret[i], tr.handled[i])
	}
	files = append(files, base+".spans.csv")
	return files, os.WriteFile(files[1], b.Bytes(), 0o644)
}

// layerMetrics assembles the -trace 1 metrics: counters and memory
// figures from the untraced half, host self time per layer from the
// profile of the traced half, model results and virtual spans.
func layerMetrics(ph, traced *phase, prof []byte) (map[string]metric, error) {
	out := map[string]metric{}
	for name, v := range ph.counters {
		out[name] = metric{v, unitOf(name)}
	}
	samples, err := parseProfile(prof)
	if err != nil {
		return out, err
	}
	counts, total := layerShares(samples)
	for _, l := range layers {
		share, samples := profileNames(l)
		v := 0.0
		if total > 0 {
			v = float64(counts[l]) / float64(total)
		}
		out[share] = metric{v, "share"}
		out[samples] = metric{float64(counts[l]), "count"}
	}
	out["profile.samples"] = metric{float64(total), "count"}

	untraced, tracedRate := median(ph.msgsPerS), median(traced.msgsPerS)
	out["trace.msgs_per_s"] = metric{tracedRate, "1/s"}
	out["trace.untraced_msgs_per_s"] = metric{untraced, "1/s"}
	out["trace.overhead"] = metric{1 - tracedRate/untraced, "share"}
	out["cluster.build_s"] = metric{median(ph.buildS), "s"}
	out["workload.gen_s"] = metric{median(ph.genS), "s"}
	out["runtime.gc_cycles"] = metric{median(ph.gcCycles), "count"}
	out["runtime.alloc_mb"] = metric{median(ph.allocMB), "MB"}
	out["runtime.mallocs_per_msg"] = metric{median(ph.mallocsPerMsg), "count"}

	m := ph.first
	send, deliver, late := spanHists(traced.spans, traced.soak)
	out["model.elapsed_us"] = metric{m.ElapsedUs, "us"}
	out["model.lat_p50_us"] = metric{m.P50Us, "us"}
	out["model.lat_p99_us"] = metric{m.P99Us, "us"}
	out["model.send_us_p99"] = metric{us(send.Percentile(0.99)), "us"}
	out["model.deliver_us_p99"] = metric{us(deliver.Percentile(0.99)), "us"}
	out["model.gen_late_us_p99"] = metric{us(late.Percentile(0.99)), "us"}
	return out, nil
}

// profileNames returns a profile layer's share and sample-count metric
// names: <layer>.self_share for the repo's modules, runtime.<role>_share
// for the runtime's parts.
func profileNames(layer string) (share, samples string) {
	if r, ok := strings.CutPrefix(layer, "runtime."); ok {
		return "runtime." + r + "_share", "runtime." + r + "_samples"
	}
	return layer + ".self_share", layer + ".samples"
}

// unitOf gives a counter's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_batch"),
		strings.HasSuffix(name, "_per_msg"), strings.HasSuffix(name, "_max"):
		return "ratio"
	}
	return "count"
}
