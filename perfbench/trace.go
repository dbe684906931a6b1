package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call across a layer boundary. ID is the scan index
// (or the rate step for serve); Parent indexes the enclosing span, -1
// for a root.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer holds spans in memory for one traced pass. A nil *tracer is the
// untraced pass: every method is a no-op, and the workloads install no
// wrappers when they are handed nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	root  int // innermost open root span; children attach to it
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a root span: a call the benchmark makes into the program.
// Until it ends, every child span — a plug-in the program calls back —
// is parented to it and shares its ID.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	return t.open(name, id, true)
}

// child opens a span under the currently open root span.
func (t *tracer) child(name string) int {
	if t == nil {
		return -1
	}
	return t.open(name, 0, false)
}

func (t *tracer) open(name string, id int, root bool) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if !root && t.root >= 0 {
		parent, id = t.root, t.spans[t.root].ID
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartMs: t.ms(now)})
	i := len(t.spans) - 1
	if root {
		t.root = i
	}
	return i
}

// end closes a span opened by begin or child.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndMs = t.ms(now)
	if t.root == i {
		t.root = -1
	}
}

// interval records a finished span outside the root nesting: a phase
// that runs beside the calls into the program rather than inside them.
func (t *tracer) interval(name string, id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: -1, StartMs: t.ms(start), EndMs: t.ms(end)})
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.EndMs - sp.StartMs
		}
	}
	return s / 1e3
}

// selfTime sums, over every span with the given name, its duration minus
// the part of it that its child spans cover (children may overlap, so
// the covered part is the union of their intervals), in seconds.
func (t *tracer) selfTime(name string) float64 {
	children := make(map[int][][2]float64)
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.StartMs, sp.EndMs})
		}
	}
	var s float64
	for i, sp := range t.spans {
		if sp.Name == name {
			s += sp.EndMs - sp.StartMs - unionLen(children[i])
		}
	}
	return s / 1e3
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE float64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is the process's peak resident set size (getrusage Maxrss,
// which Linux reports in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// timed measures one call's wall and CPU time.
type timed struct{ wall, cpu float64 }

func measure(fn func() error) (timed, error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := fn()
	return timed{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}, err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
