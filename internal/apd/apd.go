// Package apd implements the IPv6 Hitlist's multi-level aliased prefix
// detection (Section 3.1 and 5 of the paper).
//
// A prefix is tested by choosing one pseudo-random address inside each of
// its 16 four-bit subprefixes and probing them with ICMP and TCP/80. If all
// 16 respond — merged across the two protocols and the previous three
// scans, to absorb probe loss — the prefix is labeled aliased (the paper
// suggests "fully responsive" as the better name).
//
// Candidates come from three levels: every BGP-announced prefix, every /64
// with at least one input address, and longer prefixes (in 4-bit steps up
// to /120) holding at least 100 input addresses.
package apd

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// Config parameterizes the detector.
type Config struct {
	// MinAddrsLongPrefix is the input-address threshold for testing
	// prefixes longer than /64 (the paper uses 100).
	MinAddrsLongPrefix int

	// MaxPrefixLen bounds candidate length; the paper observed aliased
	// prefixes up to /120.
	MaxPrefixLen int

	// MergeScans is how many previous detection rounds are merged into
	// the current one (the paper merges with the previous three scans).
	MergeScans int

	// Protocols probed per slot; the service uses ICMP and TCP/80.
	Protocols []netmodel.Protocol
}

// DefaultConfig mirrors the service configuration.
func DefaultConfig() Config {
	return Config{
		MinAddrsLongPrefix: 100,
		MaxPrefixLen:       120,
		MergeScans:         3,
		Protocols:          []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80},
	}
}

// Candidates derives the multi-level candidate set from the BGP table and
// the service input addresses.
func Candidates(bgp []ip6.Prefix, input []ip6.Addr, cfg Config) []ip6.Prefix {
	seen := make(map[ip6.Prefix]struct{})
	var out []ip6.Prefix
	add := func(p ip6.Prefix) {
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}

	// Level 1: BGP-announced prefixes (subdividable ones only).
	for _, p := range bgp {
		if p.Bits()+4 <= 128 && p.Bits() <= cfg.MaxPrefixLen {
			add(p)
		}
	}

	// Level 2: /64s with at least one input address.
	// Level 3: longer prefixes (4-bit steps) with ≥ threshold addresses.
	perLen := make(map[int]map[ip6.Prefix]int)
	for l := 68; l <= cfg.MaxPrefixLen; l += 4 {
		perLen[l] = make(map[ip6.Prefix]int)
	}
	for _, a := range input {
		add(ip6.Slash64(a))
		for l := 68; l <= cfg.MaxPrefixLen; l += 4 {
			perLen[l][ip6.PrefixFrom(a, l)]++
		}
	}
	lens := make([]int, 0, len(perLen))
	for l := range perLen {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	for _, l := range lens {
		for p, n := range perLen[l] {
			if n >= cfg.MinAddrsLongPrefix {
				add(p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// Detection records the outcome for one candidate in one round.
type Detection struct {
	Prefix ip6.Prefix
	// Bitmap has bit i set when slot i (subprefix nibble i) responded in
	// the current round.
	Bitmap uint16
	// Merged includes the previous MergeScans rounds.
	Merged uint16
	// Aliased is Merged == 0xffff.
	Aliased bool
}

// Result is one detection round over a candidate set.
type Result struct {
	Day        int
	Aliased    *ip6.PrefixSet
	Detections map[ip6.Prefix]Detection
	// Probes is the number of scanner probes this round used.
	Probes int
}

// Detector runs rounds of multi-level APD, remembering per-prefix history
// for the cross-scan merge.
type Detector struct {
	scanner *scan.Scanner
	cfg     Config
	history map[ip6.Prefix][]uint16
	// queue is the sharded slot queue, reused across rounds so
	// steady-state detection allocates no per-round slot storage.
	queue slotQueue
}

// NewDetector builds a detector using the given scanner.
func NewDetector(s *scan.Scanner, cfg Config) *Detector {
	if cfg.MinAddrsLongPrefix <= 0 {
		cfg.MinAddrsLongPrefix = 100
	}
	if cfg.MaxPrefixLen == 0 {
		cfg.MaxPrefixLen = 120
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}
	}
	return &Detector{scanner: s, cfg: cfg, history: make(map[ip6.Prefix][]uint16)}
}

// slotSalt hoists the stream label hash out of SlotAddr: seeding with
// mix^slotSalt draws identically to rng.NewStream(mix, "apd-slot"), and
// the value-typed stream stays on the stack — SlotAddr runs 16 times per
// candidate per round, so the per-slot heap stream was a hotspot.
var slotSalt = rng.HashString("apd-slot")

// SlotAddr returns the pseudo-random probe address for slot v (0–15) of
// prefix p in the round keyed by day. The draw is deterministic per
// (prefix, slot, day): stable within a round, fresh across rounds.
func SlotAddr(p ip6.Prefix, v byte, day int) ip6.Addr {
	sub := p.SubprefixOfNibble(v)
	r := rng.NewStreamSeed(rng.Mix(p.Addr().Hi(), p.Addr().Lo(), uint64(p.Bits()), uint64(v), uint64(day)) ^ slotSalt)
	return sub.RandomAddr(&r)
}

// slotRef ties one routed probe address back to its (candidate, slot)
// pair for bitmap assembly after the scan.
type slotRef struct {
	cand int32
	v    byte
}

// slotQueue is the sharded candidate queue feeding APD probe rounds into
// the scan engine: every candidate's 16 slot addresses are drawn exactly
// once and routed to their canonical shard alongside a back-reference,
// so the flat candidates×16 target slice of the pre-redesign detector
// never exists. It implements scan.ShardedSource — probe workers pull
// their shard's address slice directly (zero-copy spans) — and the
// detection loop walks the same shards to OR responsive slots into
// per-candidate bitmaps with shard-local set lookups.
type slotQueue struct {
	addrs [ip6.AddrShards][]ip6.Addr
	refs  [ip6.AddrShards][]slotRef
	// draw and drawShard hold the round's slot addresses and their
	// shards in candidate order (slot v of candidate i at 16i+v): the
	// parallel fill's scratch, reused across rounds.
	draw      []ip6.Addr
	drawShard []uint8
	// generic pull cursor (canonical shard order)
	sh, off int
}

// fill routes a round's slot addresses into the queue, reusing the
// previous round's backing arrays. The draw runs on up to workers
// goroutines, each over one contiguous piece of the candidate list.
// Every shard then takes its pieces' slots in piece order, each piece's
// in candidate order, so each shard's addrs/refs sequence is exactly the
// one a serial pass over the candidates would build — and with it every
// probe batch and every output.
func (q *slotQueue) fill(candidates []ip6.Prefix, day, workers int) error {
	for _, p := range candidates {
		if p.Bits()+4 > 128 {
			return fmt.Errorf("apd: candidate %v too long to subdivide", p)
		}
	}
	q.sh, q.off = 0, 0
	n := 16 * len(candidates)
	q.draw = slices.Grow(q.draw[:0], n)[:n]
	q.drawShard = slices.Grow(q.drawShard[:0], n)[:n]
	pieces := min(max(workers, 1), max(len(candidates), 1))
	first := func(k int) int { return k * len(candidates) / pieces }

	// Draw each piece's slots and count them per shard.
	counts := make([][ip6.AddrShards]int, pieces)
	parallel(pieces, func(k int) {
		c := &counts[k]
		for i := first(k); i < first(k+1); i++ {
			p := candidates[i]
			for v := byte(0); v < 16; v++ {
				a := SlotAddr(p, v, day)
				sh := ip6.ShardOf(a)
				q.draw[16*i+int(v)] = a
				q.drawShard[16*i+int(v)] = uint8(sh)
				c[sh]++
			}
		}
	})

	// Turn the counts into each piece's start offset in each shard.
	for sh := range q.addrs {
		total := 0
		for k := range counts {
			c := counts[k][sh]
			counts[k][sh] = total
			total += c
		}
		q.addrs[sh] = slices.Grow(q.addrs[sh][:0], total)[:total]
		q.refs[sh] = slices.Grow(q.refs[sh][:0], total)[:total]
	}

	// Scatter: pieces write disjoint index ranges of every shard.
	parallel(pieces, func(k int) {
		off := &counts[k]
		for j := 16 * first(k); j < 16*first(k+1); j++ {
			sh := q.drawShard[j]
			q.addrs[sh][off[sh]] = q.draw[j]
			q.refs[sh][off[sh]] = slotRef{cand: int32(j / 16), v: byte(j % 16)}
			off[sh]++
		}
	})
	return nil
}

// parallel runs fn(0), …, fn(n-1) on n goroutines and waits for them.
func parallel(n int, fn func(k int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
}

func (q *slotQueue) Next(buf []ip6.Addr) (int, error) {
	for q.sh < ip6.AddrShards && q.off >= len(q.addrs[q.sh]) {
		q.sh++
		q.off = 0
	}
	if q.sh >= ip6.AddrShards {
		return 0, io.EOF
	}
	n := copy(buf, q.addrs[q.sh][q.off:])
	q.off += n
	return n, nil
}

func (q *slotQueue) ShardSource(sh int) scan.TargetSource {
	if len(q.addrs[sh]) == 0 {
		return nil
	}
	return scan.SliceSource(q.addrs[sh])
}

func (q *slotQueue) ShardLen(sh int) int { return len(q.addrs[sh]) }

// bitmaps assembles the per-candidate responsive-slot bitmaps from the
// streamed responsive sets, walking shard-locally (no address hashing).
// Up to workers goroutines each take a contiguous group of shards into
// their own bitmaps, which are then ORed together; OR is commutative and
// associative, so the result is the serial one.
func (q *slotQueue) bitmaps(nCands int, resp map[netmodel.Protocol]*ip6.ShardedSet, protos []netmodel.Protocol, workers int) []uint16 {
	sets := make([]*ip6.ShardedSet, len(protos))
	for i, proto := range protos {
		sets[i] = resp[proto]
	}
	groups := min(max(workers, 1), ip6.AddrShards)
	parts := make([][]uint16, groups)
	parallel(groups, func(g int) {
		out := make([]uint16, nCands)
		for sh := g * ip6.AddrShards / groups; sh < (g+1)*ip6.AddrShards/groups; sh++ {
			for i, a := range q.addrs[sh] {
				for _, set := range sets {
					if set.HasInShard(sh, a) {
						ref := q.refs[sh][i]
						out[ref.cand] |= 1 << ref.v
						break
					}
				}
			}
		}
		parts[g] = out
	})
	out := parts[0]
	for _, part := range parts[1:] {
		for i, b := range part {
			out[i] |= b
		}
	}
	return out
}

// Run executes one detection round at the given day.
func (d *Detector) Run(ctx context.Context, candidates []ip6.Prefix, day int) (*Result, error) {
	res := &Result{
		Day:        day,
		Aliased:    ip6.NewPrefixSet(),
		Detections: make(map[ip6.Prefix]Detection, len(candidates)),
	}

	// Route the 16 slots per candidate into the sharded queue (reused
	// across rounds), then stream the probe round through the engine:
	// probe workers pull slot addresses shard by shard, and slot
	// membership checks read the sharded responsive sets directly —
	// neither the flat slot-address list nor the result cross product is
	// ever materialized.
	queue := &d.queue
	workers := d.scanner.Config().Workers
	if err := queue.fill(candidates, day, workers); err != nil {
		return nil, err
	}
	resp, stats, err := d.scanner.StreamResponsiveFrom(ctx, queue, d.cfg.Protocols, day)
	if err != nil {
		return nil, fmt.Errorf("apd: scanning candidates: %w", err)
	}
	res.Probes = int(stats.ProbesSent)

	bitmaps := queue.bitmaps(len(candidates), resp, d.cfg.Protocols, workers)
	for i, p := range candidates {
		bitmap := bitmaps[i]
		merged := bitmap
		hist := d.history[p]
		n := d.cfg.MergeScans
		if n > len(hist) {
			n = len(hist)
		}
		for _, old := range hist[len(hist)-n:] {
			merged |= old
		}
		det := Detection{Prefix: p, Bitmap: bitmap, Merged: merged, Aliased: merged == 0xffff}
		res.Detections[p] = det
		if det.Aliased {
			res.Aliased.Add(p)
		}
		// Record history (bounded).
		hist = append(hist, bitmap)
		if len(hist) > d.cfg.MergeScans+1 {
			hist = hist[len(hist)-d.cfg.MergeScans-1:]
		}
		d.history[p] = hist
	}
	return res, nil
}

// ResponsiveSlots counts the responding slots in a bitmap.
func ResponsiveSlots(bitmap uint16) int { return bits.OnesCount16(bitmap) }

// Aggregate collapses nested aliased prefixes: descendants of an aliased
// prefix are dropped so the set reflects maximal aliased regions (an
// aliased /32 subsumes its aliased /36s).
func Aggregate(aliased []ip6.Prefix) []ip6.Prefix {
	sorted := append([]ip6.Prefix(nil), aliased...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Bits() != sorted[j].Bits() {
			return sorted[i].Bits() < sorted[j].Bits()
		}
		return ip6.ComparePrefix(sorted[i], sorted[j]) < 0
	})
	kept := ip6.NewPrefixSet()
	var out []ip6.Prefix
	for _, p := range sorted {
		if _, covered := kept.Match(p.Addr()); covered {
			continue
		}
		kept.Add(p)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// HistoryEntry is one prefix's response-pattern history — the state a
// checkpoint must carry so a resumed timeline's MergeScans window sees
// exactly the rounds an uninterrupted run would.
type HistoryEntry struct {
	Prefix ip6.Prefix
	Counts []uint16
}

// ExportHistory returns the per-prefix detection history sorted by
// prefix — the deterministic order checkpoint encodings require.
func (d *Detector) ExportHistory() []HistoryEntry {
	out := make([]HistoryEntry, 0, len(d.history))
	for p, h := range d.history {
		out = append(out, HistoryEntry{Prefix: p, Counts: h})
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i].Prefix, out[j].Prefix) < 0 })
	return out
}

// ImportHistory replaces the detector's history with the given entries
// (copying the count slices).
func (d *Detector) ImportHistory(entries []HistoryEntry) {
	d.history = make(map[ip6.Prefix][]uint16, len(entries))
	for _, e := range entries {
		d.history[e.Prefix] = append([]uint16(nil), e.Counts...)
	}
}
