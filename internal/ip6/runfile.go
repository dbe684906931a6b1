package ip6

// Sorted-run primitives: frozen sorted runs appended to a scratch file,
// fence-indexed point lookups, and k-way streaming merges. The cumulative
// sets the hitlist pipeline carries across scans (every address ever seen
// as input, every address ever responsive, the deployed GFW drop list)
// grow with the full history of the measurement — at paper scale
// hundreds of millions of 16-byte addresses, far beyond what fits in RAM
// as Go maps — so a budgeted ShardedSet (NewSpillSet) freezes its shards
// into these runs, and the hlfile writer sorts through them too.

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// AddrBytes is the on-disk size of one address in every external-memory
// structure of this package (raw network byte order, no framing).
const AddrBytes = 16

// fenceEvery is the fence-index granularity of a Run: one resident
// address per this many on-disk addresses, so a point lookup costs one
// bounded ReadAt after a resident binary search.
const fenceEvery = 256

// RunFile is an append-only scratch file of sorted address runs. Runs are
// written whole under an internal lock (safe from concurrent per-shard
// workers) and read with ReadAt (safe concurrently with appends).
// Superseded runs become dead space until the file is closed and removed
// — owners that churn runs (ShardedSet.Compact) rotate to a fresh file
// once dead bytes outgrow live data.
type RunFile struct {
	f  *os.File
	mu sync.Mutex
	sz int64
}

// OpenRunFile creates a fresh scratch run file in dir ("" = the system
// temp directory). The file is removed by Close.
func OpenRunFile(dir, pattern string) (*RunFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("ip6: creating run file: %w", err)
	}
	return &RunFile{f: f}, nil
}

// Close closes and removes the scratch file.
func (rf *RunFile) Close() error {
	name := rf.f.Name()
	err := rf.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// Size returns the bytes appended so far.
func (rf *RunFile) Size() int64 {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.sz
}

// Run is one frozen sorted run inside a RunFile: a contiguous range of
// strictly ascending addresses, plus a resident fence index (every
// fenceEvery-th address and the last) for bounded-cost point lookups.
type Run struct {
	off   int64
	count int
	fence []Addr
	last  Addr
}

// Count returns the number of addresses in the run.
func (r *Run) Count() int { return r.count }

// buildFence indexes a sorted address slice.
func buildFence(addrs []Addr) (fence []Addr, last Addr) {
	for i := 0; i < len(addrs); i += fenceEvery {
		fence = append(fence, addrs[i])
	}
	return fence, addrs[len(addrs)-1]
}

// WriteRun appends addrs — which must be sorted ascending — as one run
// and returns its handle. Duplicates within addrs are kept (MergeRuns
// drops them); an empty slice yields an empty run.
func (rf *RunFile) WriteRun(addrs []Addr) (Run, error) {
	if len(addrs) == 0 {
		return Run{}, nil
	}
	buf := make([]byte, len(addrs)*AddrBytes)
	for i, a := range addrs {
		copy(buf[i*AddrBytes:], a[:])
	}
	rf.mu.Lock()
	off := rf.sz
	rf.sz += int64(len(buf))
	rf.mu.Unlock()
	if _, err := rf.f.WriteAt(buf, off); err != nil {
		return Run{}, fmt.Errorf("ip6: writing run: %w", err)
	}
	fence, last := buildFence(addrs)
	return Run{off: off, count: len(addrs), fence: fence, last: last}, nil
}

// Has reports whether a is in the run. scratch is the caller's reusable
// read buffer (grown as needed); callers honoring the per-shard contract
// can share one per shard.
func (r *Run) Has(rf *RunFile, a Addr, scratch *[]byte) (bool, error) {
	if r.count == 0 || a.Less(r.fence[0]) || r.last.Less(a) {
		return false, nil
	}
	// Last fence block whose first address is <= a.
	blk := sort.Search(len(r.fence), func(i int) bool { return a.Less(r.fence[i]) }) - 1
	start := blk * fenceEvery
	n := r.count - start
	if n > fenceEvery {
		n = fenceEvery
	}
	need := n * AddrBytes
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	b := (*scratch)[:need]
	if _, err := rf.f.ReadAt(b, r.off+int64(start*AddrBytes)); err != nil {
		return false, fmt.Errorf("ip6: reading run block: %w", err)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		c := compareBytes(a, b[mid*AddrBytes:])
		switch {
		case c == 0:
			return true, nil
		case c < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return false, nil
}

// compareBytes orders a against the 16 raw bytes at b[0:16].
func compareBytes(a Addr, b []byte) int {
	for i := 0; i < AddrBytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// runChunk is how many addresses a run cursor reads per ReadAt.
const runChunk = 1024

// cursor streams run r in order, one bounded chunk at a time.
func (rf *RunFile) cursor(r *Run) Cursor {
	pos := 0 // addresses read so far
	var buf, cur []byte
	return func() (Addr, bool, error) {
		if len(cur) == 0 {
			n := min(runChunk, r.count-pos)
			if n == 0 {
				return Addr{}, false, nil
			}
			need := n * AddrBytes
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			cur = buf[:need]
			if _, err := rf.f.ReadAt(cur, r.off+int64(pos*AddrBytes)); err != nil {
				cur = nil
				return Addr{}, false, fmt.Errorf("ip6: reading run: %w", err)
			}
			pos += n
		}
		var a Addr
		copy(a[:], cur)
		cur = cur[AddrBytes:]
		return a, true, nil
	}
}

// MergeRuns streams the sorted union of the given runs to emit, dropping
// duplicates (within and across runs). A non-nil error from emit aborts
// the merge.
func MergeRuns(rf *RunFile, runs []*Run, emit func(Addr) error) error {
	curs := make([]Cursor, len(runs))
	for i, r := range runs {
		curs[i] = rf.cursor(r)
	}
	return MergeCursors(curs).Drain(emit)
}

// Cursor pulls addresses in ascending order, one per call; ok=false ends
// the stream. The per-shard and whole-set cursors of ShardedSet, run
// cursors and hlfile shard cursors all have this shape.
type Cursor func() (a Addr, ok bool, err error)

// Drain feeds every remaining address to emit, stopping at the first
// cursor or emit error.
func (c Cursor) Drain(emit func(Addr) error) error {
	for {
		a, ok, err := c()
		if err != nil || !ok {
			return err
		}
		if err := emit(a); err != nil {
			return err
		}
	}
}

// sliceCursor yields the members of an ascending slice.
func sliceCursor(addrs []Addr) Cursor {
	return func() (Addr, bool, error) {
		if len(addrs) == 0 {
			return Addr{}, false, nil
		}
		a := addrs[0]
		addrs = addrs[1:]
		return a, true, nil
	}
}

// MergeCursors k-way merges ascending cursors into one ascending,
// duplicate-free cursor. It keeps a min-heap of cursor heads, so memory
// is O(cursors) and comparisons O(N log cursors) — linear even for the
// hundreds-of-runs fan-in an uncompacted writer accumulates. Cursors are
// first pulled on the merged cursor's first call; the first error is
// sticky.
func MergeCursors(curs []Cursor) Cursor {
	var (
		h       mergeHeap
		primed  bool
		err     error
		last    Addr
		emitted bool
	)
	return func() (Addr, bool, error) {
		if err != nil {
			return Addr{}, false, err
		}
		if !primed {
			primed = true
			for _, c := range curs {
				a, ok, cerr := c()
				if cerr != nil {
					err = cerr
					return Addr{}, false, err
				}
				if ok {
					h = append(h, mergeEntry{head: a, next: c})
				}
			}
			for i := len(h)/2 - 1; i >= 0; i-- {
				h.siftDown(i)
			}
		}
		for len(h) > 0 {
			top := &h[0]
			a := top.head
			nxt, ok, cerr := top.next()
			if cerr != nil {
				err = cerr
				return Addr{}, false, err
			}
			if ok {
				top.head = nxt
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.siftDown(0)
			if !emitted || a != last {
				last, emitted = a, true
				return a, true, nil
			}
		}
		return Addr{}, false, nil
	}
}

// mergeHeap is a hand-rolled binary min-heap of cursors keyed by their
// head address (container/heap's interface indirection costs an
// allocation per op on the merge hot path).
type mergeEntry struct {
	head Addr
	next Cursor
}

type mergeHeap []mergeEntry

func (h mergeHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].head.Less(h[min].head) {
			min = l
		}
		if r < n && h[r].head.Less(h[min].head) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// runWriter appends one run incrementally — the streaming counterpart of
// WriteRun for merges whose output must not be materialized. The run's
// bytes are contiguous: the writer reserves nothing up front, so only one
// runWriter may be open per RunFile at a time (appends go through the
// file lock but interleaving two open writers would interleave their
// runs' bytes).
type runWriter struct {
	rf    *RunFile
	off   int64
	count int
	buf   []byte
	fence []Addr
	last  Addr
	open  bool
}

func (rf *RunFile) newRunWriter() *runWriter {
	return &runWriter{rf: rf}
}

// append adds the next address (must be > the previous one).
func (w *runWriter) append(a Addr) error {
	if !w.open {
		w.rf.mu.Lock()
		w.off = w.rf.sz
		w.rf.mu.Unlock()
		w.open = true
	}
	if w.count%fenceEvery == 0 {
		w.fence = append(w.fence, a)
	}
	w.buf = append(w.buf, a[:]...)
	w.count++
	w.last = a
	if len(w.buf) >= 64*1024 {
		return w.flush()
	}
	return nil
}

func (w *runWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	off := w.off + int64(w.count*AddrBytes) - int64(len(w.buf))
	if _, err := w.rf.f.WriteAt(w.buf, off); err != nil {
		return fmt.Errorf("ip6: writing merged run: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// finish flushes and returns the completed run.
func (w *runWriter) finish() (Run, error) {
	if err := w.flush(); err != nil {
		return Run{}, err
	}
	if w.open {
		w.rf.mu.Lock()
		end := w.off + int64(w.count*AddrBytes)
		if end > w.rf.sz {
			w.rf.sz = end
		}
		w.rf.mu.Unlock()
	}
	return Run{off: w.off, count: w.count, fence: w.fence, last: w.last}, nil
}
