package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// The streaming engine. Targets are partitioned into ip6.AddrShards
// deterministic shards by address hash; each shard is probed sequentially
// by one worker at a time, and results are delivered to the consumer in
// fixed-size batches as they complete. Because shard membership depends
// only on the address and per-probe outcomes depend only on
// (address, protocol, day, seed), the batch sequence of a shard is
// bit-identical regardless of worker count, and any consumer that
// accumulates per shard and merges in canonical shard order is
// deterministic by construction.
//
// Every entry point is a veneer over StreamFrom, which pulls targets
// from a TargetSource (see source.go). Sources that are already
// partitioned (ShardedSource) feed probe workers directly with no
// routing pass; everything else flows through a router that shards
// pulled chunks into bounded per-shard queues — either way, no full
// target set is ever materialized inside the engine.

// DefaultBatchSize is the streamed batch size when Config.BatchSize is 0.
const DefaultBatchSize = 256

// DefaultSourceChunk is the per-pull target count when Config.SourceChunk
// is 0.
const DefaultSourceChunk = 1024

// Batch is one unit of streamed scan results: a contiguous slice of the
// (target, protocol) probe sequence of a single shard.
type Batch struct {
	// Shard is the ip6.ShardOf shard every target in this batch hashes to.
	Shard int
	// Seq is the batch's sequence number within its shard, from 0.
	Seq int
	// Results holds the probe outcomes, in (target, protocol) order along
	// the shard's deterministic target sequence.
	Results []Result
	// Stats covers this batch only (per-batch throughput accounting).
	Stats Stats

	// start is the batch's offset in the shard's flat probe sequence;
	// orig maps shard-local target positions back to input positions.
	start   int
	orig    []int
	nprotos int

	// arena owns the DNS wire buffers the batch's Results reference
	// (UDP/53 streams only). It is recycled together with the Results
	// buffer, which is why sinks must deep-copy DNS payloads they want
	// to retain past the sink call.
	arena *netmodel.WireArena
}

// OrigIndex returns the position of Results[i] in the canonical
// (target, protocol) cross-product ordering of the originating Stream
// call — the index Scan uses to place results. Batches from sources
// without position mappings (StreamSharded, StreamFrom over non-slice
// sources) carry none; OrigIndex must not be called on them.
func (b *Batch) OrigIndex(i int) int {
	pos := b.start + i
	return b.orig[pos/b.nprotos]*b.nprotos + pos%b.nprotos
}

// Sink consumes streamed batches. It may be invoked concurrently from
// multiple worker goroutines, but calls for the same shard are sequential
// and in Seq order; per-shard state therefore needs no locking. The batch
// and its Results must not be retained after return. A non-nil error
// aborts the stream.
type Sink func(*Batch) error

// shardPlan is the deterministic probe plan of one shard.
type shardPlan struct {
	targets []ip6.Addr
	orig    []int
}

// buildPlans partitions targets into per-shard plans, preserving input
// order within each shard. Two passes: count, then fill two exactly-sized
// backing arrays shared by all shards (append-growth on 64 slices would
// roughly double the allocation).
func buildPlans(targets []ip6.Addr) []shardPlan {
	var counts [ip6.AddrShards]int
	for _, t := range targets {
		counts[ip6.ShardOf(t)]++
	}
	tbuf := make([]ip6.Addr, 0, len(targets))
	obuf := make([]int, 0, len(targets))
	plans := make([]shardPlan, ip6.AddrShards)
	off := 0
	for sh := range plans {
		end := off + counts[sh]
		plans[sh].targets = tbuf[off:off:end]
		plans[sh].orig = obuf[off:off:end]
		off = end
	}
	for i, t := range targets {
		sh := ip6.ShardOf(t)
		plans[sh].targets = append(plans[sh].targets, t)
		plans[sh].orig = append(plans[sh].orig, i)
	}
	return plans
}

// Stream probes every (target, protocol) pair for the given day, routing
// work through the sharded worker pool and delivering results to sink in
// batches of Config.BatchSize. It returns aggregate statistics. The
// context cancels the stream between batches; batches already delivered
// stand, and ctx.Err() is returned. Stream is a thin wrapper over
// StreamFrom with a slice-backed source (which keeps the plan-based fast
// path and the Batch.OrigIndex position mapping).
func (s *Scanner) Stream(ctx context.Context, targets []ip6.Addr, protos []netmodel.Protocol, day int, sink Sink) (Stats, error) {
	if len(targets) == 0 || len(protos) == 0 {
		var total streamTotals
		return total.stats(s.cfg.RatePPS), nil
	}
	return s.StreamFrom(ctx, SliceSource(targets), protos, day, sink)
}

// StreamSharded probes targets the caller has already partitioned into
// canonical shards: shards[i] holds shard i's targets (every address must
// satisfy ShardOf == i) and len(shards) must be ip6.AddrShards. It is the
// zero-materialization entry point for sharded slice producers — a thin
// wrapper over StreamFrom with a ShardSlices source, so per-shard target
// slices feed the engine directly and no concatenated global slice is
// ever built. Batches from StreamSharded carry no original-position
// mapping, so Batch.OrigIndex must not be called on them; accumulate
// per shard instead.
func (s *Scanner) StreamSharded(ctx context.Context, shards [][]ip6.Addr, protos []netmodel.Protocol, day int, sink Sink) (Stats, error) {
	if len(shards) != ip6.AddrShards {
		return Stats{}, fmt.Errorf("scan: StreamSharded wants %d shards, got %d", ip6.AddrShards, len(shards))
	}
	return s.StreamFrom(ctx, ShardSlices(shards), protos, day, sink)
}

// StreamFrom pulls targets from src, shards them, probes every
// (target, protocol) pair for the given day on the worker pool, and
// delivers results to sink in batches of Config.BatchSize — without ever
// holding the full target set. Sources implementing ShardedSource are
// pulled per shard directly by the probe workers; any other source is
// pulled in Config.SourceChunk-sized chunks and routed into bounded
// per-shard queues, with the puller blocking (backpressure) once too many
// routed targets are waiting to be probed. Outputs are bit-identical for
// any worker count, batch size or chunk size; the per-shard batch
// sequence equals that of a Stream call over the materialized source. If
// src implements io.Closer it is closed when the stream ends, on every
// path.
func (s *Scanner) StreamFrom(ctx context.Context, src TargetSource, protos []netmodel.Protocol, day int, sink Sink) (Stats, error) {
	var total streamTotals
	if src == nil {
		return total.stats(s.cfg.RatePPS), nil
	}
	defer closeSource(src)
	if len(protos) == 0 {
		return total.stats(s.cfg.RatePPS), nil
	}

	run := &streamRun{
		s:      s,
		ctx:    ctx,
		protos: protos,
		day:    day,
		sink:   sink,
		total:  &total,
		stop:   make(chan struct{}),
	}
	run.batchSize = s.cfg.BatchSize
	if run.batchSize <= 0 {
		run.batchSize = DefaultBatchSize
	}
	run.chunk = s.cfg.SourceChunk
	if run.chunk <= 0 {
		run.chunk = DefaultSourceChunk
	}
	if s.cfg.SinkQueueDepth > 0 {
		run.queue = newSinkQueue(s, sink, s.cfg.SinkQueueDepth, run.fail)
	}

	if sharded, ok := src.(ShardedSource); ok {
		run.runSharded(sharded)
	} else {
		run.runRouted(src)
	}

	if run.queue != nil {
		run.queue.close() // drains and waits; a sink error surfaces via fail
	}
	return total.stats(s.cfg.RatePPS), run.err()
}

// errStreamStopped is the internal signal that another worker already
// failed the stream: unwind without flushing, without overwriting the
// original error.
var errStreamStopped = errors.New("scan: stream stopped")

// streamRun is the shared state of one StreamFrom call.
type streamRun struct {
	s      *Scanner
	ctx    context.Context
	protos []netmodel.Protocol
	day    int
	sink   Sink
	queue  *sinkQueue
	total  *streamTotals

	batchSize int
	chunk     int

	stop     chan struct{}
	stopOnce sync.Once
	onStop   func() // set before workers start; wakes path-specific waiters
	errMu    sync.Mutex
	firstErr error
}

func (r *streamRun) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.stopOnce.Do(func() {
		close(r.stop)
		if r.onStop != nil {
			r.onStop()
		}
	})
}

func (r *streamRun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// shardProbe is the persistent probe/flush state of one shard within a
// stream. Segments of the shard's target sequence arrive via probe() —
// possibly many, pulled or routed incrementally — and batches flush at
// exact BatchSize boundaries regardless of how the sequence was
// segmented, so the delivered batch sequence is identical to probing the
// whole shard at once. Only the goroutine currently owning the shard
// touches it.
type shardProbe struct {
	run      *streamRun
	shard    int
	b        *Batch
	pos      int
	need     int
	released bool
}

// newShardProbe starts a shard's probe state. orig is the optional
// original-position mapping (slice-backed streams); size is the shard's
// total target count when known, -1 otherwise — it only tunes the first
// buffer's capacity.
func (r *streamRun) newShardProbe(shard int, orig []int, size int) *shardProbe {
	need := r.batchSize
	if size >= 0 {
		if n := size * len(r.protos); n < need {
			need = n
		}
	}
	b := &Batch{Shard: shard, orig: orig, nprotos: len(r.protos)}
	b.Results = r.s.getBuf(need)
	b.arena = r.s.getArena(r.protos)
	return &shardProbe{run: r, shard: shard, b: b, need: need}
}

// flush delivers the current batch — inline to the sink, or through the
// bounded delivery queue when one is configured.
func (p *shardProbe) flush() error {
	if len(p.b.Results) == 0 {
		return nil
	}
	r := p.run
	p.b.Stats.EstimatedSeconds = float64(p.b.Stats.ProbesSent) / float64(r.s.cfg.RatePPS)
	p.b.Stats.Batches = 1
	r.total.add(p.shard, &p.b.Stats)
	if r.queue != nil {
		// Ownership of the filled batch moves to the delivery goroutine
		// (which pools its buffer after the sink call); probing continues
		// immediately into a fresh buffer.
		full := p.b
		p.b = &Batch{Shard: p.shard, Seq: full.Seq + 1, start: p.pos, orig: full.orig, nprotos: full.nprotos}
		p.b.Results = r.s.getBuf(p.need)
		p.b.arena = r.s.getArena(r.protos)
		r.queue.enqueue(full)
		return nil
	}
	if err := r.sink(p.b); err != nil {
		return err
	}
	p.b.Seq++
	p.b.start = p.pos
	p.b.Results = p.b.Results[:0]
	// The sink has consumed (or deep-copied) every result, so the DNS
	// buffers its rows referenced are free to reuse for the next batch.
	p.b.arena.Reset()
	p.b.Stats = Stats{}
	return nil
}

// next extends the batch by one result and returns it for the probe to
// write in place. The buffer is sized for a whole batch, so it only
// grows when a source under-reported its shard's length.
func (p *shardProbe) next() *Result {
	rs := p.b.Results
	n := len(rs)
	if n == cap(rs) {
		rs = slices.Grow(rs, 1)
	}
	p.b.Results = rs[:n+1]
	return &p.b.Results[n]
}

// probe runs one segment of the shard's target sequence, flushing full
// batches as they complete. It returns ctx.Err() on cancellation,
// errStreamStopped when another worker failed the stream, or a sink
// error.
func (p *shardProbe) probe(targets []ip6.Addr) error {
	r := p.run
	t0 := time.Now()
	defer func() { r.total.addNanos(p.shard, time.Since(t0)) }()
	for _, a := range targets {
		// Everything fixed per target — shard, alias rule, host and the
		// loss-draw prefix — is resolved once for all its protocols.
		t := r.s.resolve(a, r.day)
		for _, proto := range r.protos {
			res := p.next()
			r.s.probeInto(res, &t, proto, p.b.arena)
			p.b.Stats.ProbesSent += uint64(res.Attempts)
			if res.Kind != netmodel.RespNone {
				p.b.Stats.Responses++
			}
			if res.Success {
				p.b.Stats.Successes++
			}
			p.pos++
			if len(p.b.Results) == r.batchSize {
				if err := p.flush(); err != nil {
					return err
				}
				// Cancellation is checked at batch granularity: cheap
				// enough to stay responsive, coarse enough to keep the
				// hot loop branch-free.
				select {
				case <-r.ctx.Done():
					return r.ctx.Err()
				case <-r.stop:
					return errStreamStopped
				default:
				}
			}
		}
	}
	return nil
}

// finish flushes the trailing partial batch and releases the buffer.
func (p *shardProbe) finish() error {
	err := p.flush()
	p.release()
	return err
}

// release returns the probe's buffer and arena to their pools;
// idempotent.
func (p *shardProbe) release() {
	if !p.released {
		p.released = true
		p.run.s.putBuf(p.b.Results)
		p.run.s.putArena(p.b.arena)
		p.b.Results = nil
		p.b.arena = nil
	}
}

// runSharded streams a pre-partitioned source: the worker pool hands out
// whole shards, and each worker pulls its shard's sub-source directly
// into probing — no routing, no cross-shard buffering.
func (r *streamRun) runSharded(src ShardedSource) {
	var feeds [ip6.AddrShards]TargetSource
	nonEmpty := 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if f := src.ShardSource(sh); f != nil {
			feeds[sh] = f
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return
	}
	origs, _ := src.(origSource)
	sizes, _ := src.(ShardSizer)
	workers := r.s.cfg.Workers
	if workers > nonEmpty {
		workers = nonEmpty
	}

	var wg sync.WaitGroup
	shardCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []ip6.Addr // lazy pull buffer for non-span sources
			for sh := range shardCh {
				select {
				case <-r.stop:
					return
				default:
				}
				var orig []int
				if origs != nil {
					orig = origs.shardOrig(sh)
				}
				size := -1
				if sizes != nil {
					size = sizes.ShardLen(sh)
				}
				if err := r.pullShard(sh, feeds[sh], orig, size, &buf); err != nil {
					r.fail(err)
					return
				}
			}
		}()
	}

	// Hand-out order: canonical unless the scanner carries an adaptive
	// dispatch order (slowest-first scheduling). Order only affects which
	// worker starts which shard when — every shard's own batch sequence,
	// and therefore every output, is identical.
	order := r.s.dispatchOrder()

feed:
	for i := 0; i < ip6.AddrShards; i++ {
		sh := i
		if order != nil {
			sh = order[i]
		}
		if feeds[sh] == nil {
			continue
		}
		// Check for abort before the blocking dispatch: when stop and an
		// idle worker are both ready, select would otherwise pick at
		// random and could hand out whole extra shards after a failure.
		select {
		case <-r.ctx.Done():
			r.fail(r.ctx.Err())
			break feed
		case <-r.stop:
			break feed
		default:
		}
		select {
		case shardCh <- sh:
		case <-r.ctx.Done():
			r.fail(r.ctx.Err())
			break feed
		case <-r.stop:
			break feed
		}
	}
	close(shardCh)
	wg.Wait()
}

// pullShard probes one shard's whole target sequence by pulling its
// source to exhaustion. A nil return covers both success and an orderly
// stop (the stream's first error is already recorded elsewhere).
func (r *streamRun) pullShard(sh int, src TargetSource, orig []int, size int, buf *[]ip6.Addr) error {
	sp := r.newShardProbe(sh, orig, size)
	spanner, _ := src.(SpanSource)
	for {
		var seg []ip6.Addr
		var err error
		if spanner != nil {
			seg, err = spanner.Span(r.chunk)
		} else {
			if *buf == nil {
				*buf = make([]ip6.Addr, r.chunk)
			}
			var n int
			n, err = src.Next(*buf)
			seg = (*buf)[:n]
		}
		if len(seg) > 0 {
			if perr := sp.probe(seg); perr != nil {
				sp.release()
				if perr == errStreamStopped {
					return nil
				}
				return perr
			}
		} else if err == nil {
			sp.release()
			return fmt.Errorf("scan: shard %d source made no progress", sh)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sp.release()
			return err
		}
	}
	return sp.finish()
}

// routedShard is one shard's routing queue in the routed path.
type routedShard struct {
	pending   []ip6.Addr // routed, not yet probed (FIFO)
	spare     []ip6.Addr // recycled backing array for pending
	scheduled bool       // a token for this shard is in workCh / owned by a worker
	done      bool       // the source is exhausted; no more input will arrive
	finished  bool       // final flush has run
	sp        *shardProbe
}

// runRouted streams an unpartitioned source: the calling goroutine pulls
// chunks and routes each address to its canonical shard's queue, probe
// workers drain the queues (one worker per shard at a time, FIFO), and a
// window cap on routed-but-unprobed targets applies backpressure to the
// puller. Per-shard probe state persists across segments, so batch
// boundaries — and therefore every output — are exactly those of a
// single-pass stream.
func (r *streamRun) runRouted(src TargetSource) {
	workers := r.s.cfg.Workers
	if workers > ip6.AddrShards {
		workers = ip6.AddrShards
	}
	// The window bounds engine-held targets: large enough to keep every
	// worker busy between pulls, small enough that a huge source never
	// accumulates in memory.
	window := r.chunk * (workers + 2)

	shards := make([]routedShard, ip6.AddrShards)
	var (
		mu          sync.Mutex
		cond        = sync.NewCond(&mu)
		outstanding int
		stopped     bool
	)
	r.onStop = func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	}

	// Buffered to AddrShards: the scheduled flag guarantees at most one
	// token per shard, so sends never block.
	workCh := make(chan int, ip6.AddrShards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range workCh {
				rs := &shards[sh]
				for {
					mu.Lock()
					seg := rs.pending
					rs.pending = nil
					if len(seg) == 0 {
						final := rs.done && rs.sp != nil && !rs.finished
						if final {
							rs.finished = true
						} else {
							rs.scheduled = false
						}
						mu.Unlock()
						if final {
							if err := rs.sp.finish(); err != nil {
								r.fail(err)
								return
							}
						}
						break
					}
					if rs.sp == nil {
						rs.sp = r.newShardProbe(sh, nil, -1)
					}
					sp := rs.sp
					mu.Unlock()

					err := sp.probe(seg)

					mu.Lock()
					if rs.spare == nil {
						rs.spare = seg[:0]
					}
					outstanding -= len(seg)
					cond.Broadcast()
					mu.Unlock()
					if err != nil {
						sp.release()
						if err != errStreamStopped {
							r.fail(err)
						}
						return
					}
				}
			}
		}()
	}

	hint := -1
	if h, ok := src.(ShardHinter); ok {
		hint = h.ShardHint()
	}
	buf := make([]ip6.Addr, r.chunk)
pull:
	for {
		select {
		case <-r.ctx.Done():
			r.fail(r.ctx.Err())
			break pull
		case <-r.stop:
			break pull
		default:
		}
		n, err := src.Next(buf)
		if n > 0 {
			mu.Lock()
			for outstanding+n > window && !stopped {
				cond.Wait()
			}
			if stopped {
				mu.Unlock()
				break pull
			}
			outstanding += n
			for _, a := range buf[:n] {
				sh := hint
				if sh < 0 {
					sh = ip6.ShardOf(a)
				}
				rs := &shards[sh]
				if rs.pending == nil && rs.spare != nil {
					rs.pending = rs.spare
					rs.spare = nil
				}
				rs.pending = append(rs.pending, a)
				if !rs.scheduled {
					rs.scheduled = true
					workCh <- sh
				}
			}
			mu.Unlock()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.fail(err)
			break
		}
		if n == 0 {
			r.fail(fmt.Errorf("scan: source made no progress"))
			break
		}
	}

	// End of input: schedule the final flush of every shard with a live
	// partial batch or unprobed remainder — unless the stream already
	// failed, in which case workers are unwinding and partial batches are
	// dropped (the Sink contract: delivered batches stand, nothing else).
	aborted := false
	select {
	case <-r.stop:
		aborted = true
	default:
	}
	mu.Lock()
	for sh := range shards {
		rs := &shards[sh]
		rs.done = true
		if !aborted && (len(rs.pending) > 0 || rs.sp != nil) && !rs.scheduled {
			rs.scheduled = true
			workCh <- sh
		}
	}
	mu.Unlock()
	close(workCh)
	wg.Wait()

	// Release any probe buffers stranded by an abort.
	for sh := range shards {
		if sp := shards[sh].sp; sp != nil {
			sp.release()
		}
	}
}

// sinkQueue is the bounded delivery queue between probe workers and the
// sink (Config.SinkQueueDepth). A single delivery goroutine preserves the
// Sink contract: batches arrive FIFO, and a shard's batches are enqueued
// in Seq order by the one worker holding that shard, so same-shard calls
// stay sequential and ordered. On a sink error the queue keeps draining
// (returning buffers to the pool) so producers can never block forever on
// a full channel.
type sinkQueue struct {
	scanner *Scanner
	ch      chan *Batch
	done    chan struct{}
}

func newSinkQueue(s *Scanner, sink Sink, depth int, fail func(error)) *sinkQueue {
	q := &sinkQueue{scanner: s, ch: make(chan *Batch, depth), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		failed := false
		for b := range q.ch {
			if !failed {
				if err := sink(b); err != nil {
					fail(err)
					failed = true
				}
			}
			s.putBuf(b.Results)
			s.putArena(b.arena)
		}
	}()
	return q
}

// enqueue hands a filled batch to the delivery goroutine, blocking while
// the queue is full — that block is the backpressure. The batch's buffer
// is owned by the queue from here on.
func (q *sinkQueue) enqueue(b *Batch) { q.ch <- b }

// close signals end of stream and waits for the last delivery.
func (q *sinkQueue) close() {
	close(q.ch)
	<-q.done
}

// getBuf returns a pooled result buffer with at least the given
// capacity, empty.
func (s *Scanner) getBuf(need int) []Result {
	if buf, ok := s.bufPool.Get().([]Result); ok && cap(buf) >= need {
		return buf[:0]
	}
	return make([]Result, 0, need)
}

// putBuf clears a buffer and parks it in the pool. Clearing before
// pooling keeps parked buffers from pinning DNS payloads from the last
// batches until their slots are overwritten.
func (s *Scanner) putBuf(buf []Result) {
	buf = buf[:cap(buf)]
	clear(buf)
	s.bufPool.Put(buf[:0])
}

// getArena returns a pooled DNS wire arena for a stream probing UDP/53,
// nil otherwise — non-DNS streams never touch the arena machinery.
func (s *Scanner) getArena(protos []netmodel.Protocol) *netmodel.WireArena {
	dns := false
	for _, p := range protos {
		if p == netmodel.UDP53 {
			dns = true
			break
		}
	}
	if !dns {
		return nil
	}
	if a, ok := s.arenaPool.Get().(*netmodel.WireArena); ok {
		return a
	}
	return new(netmodel.WireArena)
}

// putArena resets an arena — its batch's results are fully consumed —
// and parks it; nil-safe.
func (s *Scanner) putArena(a *netmodel.WireArena) {
	if a != nil {
		a.Reset()
		s.arenaPool.Put(a)
	}
}

// ShardStats is one canonical shard's slice of a stream's throughput
// accounting — the raw signal for scheduler-style adaptive rate control.
type ShardStats struct {
	ProbesSent uint64
	Responses  uint64
	Successes  uint64
	Batches    uint64
	// Nanos is the cumulative wall-clock time probe workers spent inside
	// this shard. Unlike every other stream output it is nondeterministic
	// (it measures the machine, not the simulation), so consumers pinning
	// deterministic outputs must ignore it.
	Nanos int64
}

// streamTotals aggregates batch stats with atomics (batches finish on
// many workers at once), overall and per shard.
type streamTotals struct {
	probes, responses, successes, batches atomic.Uint64
	shards                                [ip6.AddrShards]shardTotals
}

type shardTotals struct {
	probes, responses, successes, batches atomic.Uint64
	nanos                                 atomic.Int64
}

func (t *streamTotals) add(shard int, b *Stats) {
	t.probes.Add(b.ProbesSent)
	t.responses.Add(b.Responses)
	t.successes.Add(b.Successes)
	t.batches.Add(1)
	sh := &t.shards[shard]
	sh.probes.Add(b.ProbesSent)
	sh.responses.Add(b.Responses)
	sh.successes.Add(b.Successes)
	sh.batches.Add(1)
}

func (t *streamTotals) addNanos(shard int, d time.Duration) {
	t.shards[shard].nanos.Add(int64(d))
}

func (t *streamTotals) stats(ratePPS int) Stats {
	st := Stats{
		ProbesSent: t.probes.Load(),
		Responses:  t.responses.Load(),
		Successes:  t.successes.Load(),
		Batches:    t.batches.Load(),
	}
	st.EstimatedSeconds = float64(st.ProbesSent) / float64(ratePPS)
	st.PerShard = make([]ShardStats, ip6.AddrShards)
	for i := range t.shards {
		sh := &t.shards[i]
		st.PerShard[i] = ShardStats{
			ProbesSent: sh.probes.Load(),
			Responses:  sh.responses.Load(),
			Successes:  sh.successes.Load(),
			Batches:    sh.batches.Load(),
			Nanos:      sh.nanos.Load(),
		}
	}
	return st
}
