package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets CPU samples are attributed to: the repo's
// modules by package, the Go runtime split by what it was doing, the
// benchmark's own drive bodies, and everything else.
var layers = []string{
	"sim", "myrinet", "lanai", "lcp", "sbus", "host", "core", "mpi",
	"stats", "ring", "workload", "cluster", "perfbench",
	"runtime.sched", "runtime.gc", "runtime.malloc", "runtime.other", "other",
}

// modules maps the repo's package paths to their layer names.
var modules = map[string]string{
	"fm/internal/sim":      "sim",
	"fm/internal/myrinet":  "myrinet",
	"fm/internal/lanai":    "lanai",
	"fm/internal/lcp":      "lcp",
	"fm/internal/sbus":     "sbus",
	"fm/internal/host":     "host",
	"fm/internal/core":     "core",
	"fm/internal/mpi":      "mpi",
	"fm/internal/stats":    "stats",
	"fm/internal/ring":     "ring",
	"fm/internal/workload": "workload",
	"fm/internal/cluster":  "cluster",
	"main":                 "perfbench",
}

// pkgOf returns the package path of a symbol name such as
// "fm/internal/ring.(*Ring[...]).Push" or "runtime.chansend1".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// Runtime functions by role. Scheduling covers the goroutine handoff a
// simulated process switch costs: channel send/receive, park/ready, the
// scheduler loop and the futex and lock calls beneath it. Malloc covers
// allocation and heap span management, GC marking and sweeping.
var (
	schedPrefixes = []string{
		"chansend", "chanrecv", "send", "recv", "closechan", "selectgo",
		"gopark", "goready", "ready", "park_m", "parkunlock", "chanparkcommit",
		"schedule", "findRunnable", "findrunnable", "execute", "stealWork",
		"runq", "globrunq", "injectglist", "wakep", "startm", "stopm", "mPark",
		"handoffp", "acquirep", "releasep", "pidle", "resetspinning",
		"futex", "note", "lock", "unlock", "casgstatus", "mcall", "gogo",
		"gosched", "goschedImpl", "osyield", "usleep", "procyield", "dropg",
		"(*waitq)", "acquireSudog", "releaseSudog", "checkTimers", "netpoll",
		"newproc", "goexit0", "goexit1", "gfget", "gfput", "mstart", "nanotime", "(*randomEnum)",
		"(*guintptr)", "acquirem", "releasem", "mget", "mput", "wirep", "pMask", "systemstack",
		"(*timers)", "(*timeHistogram)", "trace", "(*mLockProfile)", "asyncPreempt",
	}
	gcMarkers = []string{
		"gc", "sweep", "scan", "mark", "scav", "WriteBarrier", "wbBuf",
		"greyobject", "findObject", "spanOf", "lfstack", "getempty", "putempty",
		"trygetfull", "(*gcWork)", "bulkBarrier",
	}
	mallocMarkers = []string{
		"alloc", "nextFree", "memclr", "newobject", "makeslice",
		"growslice", "heapSetType", "refill", "cacheSpan", "newarray", "makemap",
		"mspan", "mheap", "mcentral", "heapBits", "typePointers", "sysMem", "mSpanList",
	}
)

// classify attributes one function to a layer. Library code (the
// standard library outside the runtime proper, map operations, memmove)
// reports library=true: its samples belong to whichever layer called it.
func classify(fn string) (layer string, library bool) {
	pkg := pkgOf(fn)
	if l, ok := modules[pkg]; ok {
		return l, false
	}
	name, inRuntime := strings.CutPrefix(fn, "runtime.")
	if !strings.Contains(fn, ".") {
		name, inRuntime = fn, true // assembly such as gogo carries no package
	}
	if !inRuntime {
		return "", true
	}
	switch {
	case name == "goexit", strings.HasPrefix(name, "map"), strings.HasPrefix(name, "memmove"):
		return "", true
	case strings.HasPrefix(name, "mallocgc"):
		return "runtime.malloc", false
	}
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return "runtime.gc", false
		}
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(name, p) {
			return "runtime.sched", false
		}
	}
	for _, m := range mallocMarkers {
		if strings.Contains(name, m) {
			return "runtime.malloc", false
		}
	}
	return "runtime.other", false
}

// layerOf attributes one sample by its stack (leaf first): the first
// frame that is not library code decides.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, lib := classify(fn); !lib {
			return l
		}
	}
	return "other"
}

// stackSample is one profile sample: its call stack, leaf first, with
// inlined frames expanded, and how many times it was seen.
type stackSample struct {
	stack []string
	n     int64
}

// parseProfile decodes a gzipped pprof CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var ids, vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids = appendVarints(ids, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err == nil && len(vals) > 0 {
				samples = append(samples, sample{ids, int64(vals[0])})
			}
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx, ok := funcs[f]; ok && idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out = append(out, stackSample{stack, s.n})
	}
	return out, nil
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per key (v) or packed into one length-delimited run (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// layerShares attributes samples to layers and counts them.
func layerShares(samples []stackSample) (counts map[string]int64, total int64) {
	counts = map[string]int64{}
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.n
		total += s.n
	}
	return counts, total
}
