package sim

import (
	"fmt"
	"io"
)

// Trace is an optional, low-overhead event log. When disabled (the
// default), tracing calls reduce to a nil check.
type Trace struct {
	w io.Writer
}

// EnableTrace directs kernel trace output to w. Passing nil disables
// tracing.
func (k *Kernel) EnableTrace(w io.Writer) {
	if w == nil {
		k.trace = nil
		return
	}
	k.trace = &Trace{w: w}
}

// Tracef writes a timestamped trace line if tracing is enabled. cat is a
// short category tag such as "lcp" or "sbus".
func (k *Kernel) Tracef(cat, format string, args ...any) {
	if k.trace == nil {
		return
	}
	fmt.Fprintf(k.trace.w, "%12.3f us [%-8s] %s\n",
		k.Now().Microseconds(), cat, fmt.Sprintf(format, args...))
}

// Tracing reports whether tracing is enabled, so callers can skip
// expensive argument construction.
func (k *Kernel) Tracing() bool { return k.trace != nil }
