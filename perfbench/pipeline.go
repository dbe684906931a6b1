package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/core"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
	"hitlist6/internal/sources"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// defaultSeed is the hitlist6 command's default world seed; the record
// digests in digests.json are pinned at it.
const defaultSeed = 42

// Each run builds its world and service at least minSetupReps times and
// until minSetupTime has passed (at most maxSetupReps times); setup_s is
// the median build.
const (
	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = time.Second
)

var gfwFilterDay = netmodel.DayOf(2022, time.February, 7)

// deployment is a built world and the service over it.
type deployment struct {
	w     *worldgen.World
	feeds []*sources.Feed
	svc   *core.Service
	addrs *atomic.Int64 // addresses returned by the traced feeds
}

// buildWorld generates the synthetic Internet at a scale and wires its
// feeds, as the hitlist6, zmap6sim and hitlist6serve commands do.
func buildWorld(scale float64, seed uint64) (*worldgen.World, []*sources.Feed, error) {
	wp := worldgen.TimelineParams(seed)
	wp.Scale = scale
	w, err := worldgen.Generate(wp)
	if err != nil {
		return nil, nil, fmt.Errorf("generating world: %w", err)
	}
	return w, w.BuildFeeds(yarrp.New(w.Net, yarrp.Config{Seed: seed})), nil
}

// setUp builds the deployment repeatedly and keeps the last build.
// setup_s is the median build time: world generation, feed wiring,
// NewService and pre (the serve workload's pre-run scans). With a
// tracer, each Feed.Collect is wrapped in a span.
func setUp(o *outcome, tr *tracer, scale float64, seed uint64, cfg func(rep int) core.Config, pre func(*deployment) error) (*deployment, error) {
	var setup, gen []float64
	var d *deployment
	start := time.Now()
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || time.Since(start) < minSetupTime); rep++ {
		if d != nil {
			// Drop the previous build before timing the next one, so
			// every build starts from the same heap.
			d.svc.Close()
			d = nil
			runtime.GC()
		}
		t0 := time.Now()
		sp := tr.begin("worldgen.generate", rep)
		w, feeds, err := buildWorld(scale, seed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		gen = append(gen, time.Since(t0).Seconds())
		d = &deployment{w: w, feeds: feeds, addrs: new(atomic.Int64)}
		if tr != nil {
			d.feeds = traceFeeds(tr, feeds, d.addrs)
		}
		sp = tr.begin("core.new_service", rep)
		d.svc = core.NewService(cfg(rep), w.Net, d.feeds, w.Blocklist)
		tr.end(sp)
		if pre != nil {
			if err := pre(d); err != nil {
				d.svc.Close()
				return nil, err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	o.m["setup_s"] = median(setup)
	o.m["worldgen.generate_s"] = median(gen)
	runtime.GC()
	return d, nil
}

// traceFeeds wraps each Collect-backed feed so every call the service
// makes into it is a span; the addresses it returns are counted in
// addrs. The feeds' behaviour is unchanged.
func traceFeeds(tr *tracer, feeds []*sources.Feed, addrs *atomic.Int64) []*sources.Feed {
	out := make([]*sources.Feed, len(feeds))
	for i, f := range feeds {
		g := *f
		if collect := f.Collect; collect != nil {
			g.Collect = func(ctx context.Context, day int) ([]ip6.Addr, error) {
				sp := tr.child("sources.collect")
				a, err := collect(ctx, day)
				tr.end(sp)
				addrs.Add(int64(len(a)))
				return a, err
			}
		}
		out[i] = &g
	}
	return out
}

// tgaFeed is the Section 6 candidate feed: every generator's view source
// over the round's seeds, chained. With a tracer, Candidates and each
// pull of the chained stream are spans (the time the scan waits for
// candidates, model updates included).
type tgaFeed struct {
	gens   []tga.ViewStreamer
	budget int
	tr     *tracer
}

// newTGAFeed builds fresh generators (their incremental models live
// inside them), each with its default config.
func newTGAFeed(tr *tracer) *tgaFeed {
	return &tgaFeed{
		gens: []tga.ViewStreamer{
			dc.New(dc.DefaultConfig()),
			sixtree.New(sixtree.DefaultConfig()),
			sixgraph.New(sixgraph.DefaultConfig()),
			sixgan.New(sixgan.DefaultConfig()),
			sixveclm.New(sixveclm.DefaultConfig()),
		},
		budget: 4096,
		tr:     tr,
	}
}

func (f *tgaFeed) Name() string { return "tga" }

func (f *tgaFeed) Candidates(day int, seeds *tga.SeedView) scan.TargetSource {
	sp := f.tr.child("tga.wait")
	srcs := make([]scan.TargetSource, len(f.gens))
	for i, g := range f.gens {
		srcs[i] = tga.NewViewSource(g, seeds, f.budget)
	}
	src := scan.Chain(srcs...)
	f.tr.end(sp)
	if f.tr == nil {
		return src
	}
	return &tracedSource{src: src, tr: f.tr}
}

// tracedSource spans each pull of a candidate stream.
type tracedSource struct {
	src scan.TargetSource
	tr  *tracer
}

func (s *tracedSource) Next(buf []ip6.Addr) (int, error) {
	sp := s.tr.child("tga.wait")
	n, err := s.src.Next(buf)
	s.tr.end(sp)
	return n, err
}

func (s *tracedSource) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// scanLog collects what each RunScan returned and how long it took.
type scanLog struct {
	tr    *tracer
	span  string // name of the RunScan spans
	svc   *core.Service
	addrs *atomic.Int64 // addresses the traced feeds returned
	lat   []float64     // ms per RunScan
	cpu   float64
	alloc uint64
	recs  []*core.ScanRecord

	// Publication telemetry: the handle's cumulative shard counters at
	// the start, and the summed per-publication build time.
	refrozen0, shared0 uint64
	pubBuild           float64
}

func newScanLog(tr *tracer, d *deployment, span string) *scanLog {
	l := &scanLog{tr: tr, svc: d.svc, addrs: d.addrs, span: span}
	l.refrozen0, l.shared0, _ = d.svc.QueryHandle().PublishStats()
	return l
}

// scan runs one RunScan as a root span with ID k. The traced pass also
// reads process CPU time, allocation totals and publish statistics
// around it.
func (l *scanLog) scan(ctx context.Context, k, day int) (*core.ScanRecord, error) {
	var ms runtime.MemStats
	var c0 float64
	var gen0 uint64
	if l.tr != nil {
		runtime.ReadMemStats(&ms)
		c0 = cpuSeconds()
		gen0 = l.svc.QueryHandle().Generation()
	}
	a0 := ms.TotalAlloc
	sp := l.tr.begin(l.span, k)
	t0 := time.Now()
	rec, err := l.svc.RunScan(ctx, day)
	dt := time.Since(t0)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.lat = append(l.lat, float64(dt)/1e6)
	l.recs = append(l.recs, rec)
	if l.tr != nil {
		l.cpu += cpuSeconds() - c0
		runtime.ReadMemStats(&ms)
		l.alloc += ms.TotalAlloc - a0
		h := l.svc.QueryHandle()
		if h.Generation() != gen0 {
			_, _, build := h.PublishStats()
			l.pubBuild += build.Seconds()
		}
	}
	return rec, nil
}

// layerMetrics reports the per-layer numbers of the logged scans: the
// RunScan spans and the counters the records carry.
func (l *scanLog) layerMetrics(o *outcome) {
	var probes, scanProbes, succ uint64
	var busy int64
	var skews []float64
	rec := &core.ScanRecord{}
	var injected, tgaCand, tgaResp, tgaRefrozen int
	for _, r := range l.recs {
		rec = r
		probes += r.ProbesSent
		injected += r.InjectedDNS
		tgaCand += r.TGACandidates
		tgaResp += r.TGAResponsive
		tgaRefrozen += r.TGARefrozenShards
		var nanos []float64
		for _, st := range r.ShardStats {
			scanProbes += st.ProbesSent
			succ += st.Successes
			busy += st.Nanos
			if st.Nanos > 0 {
				nanos = append(nanos, float64(st.Nanos))
			}
		}
		if len(nanos) > 0 {
			sort.Float64s(nanos)
			skews = append(skews, nanos[len(nanos)-1]/median(nanos))
		}
	}
	o.m["core.probes"] = float64(probes)
	o.m["scan.probes"] = float64(scanProbes)
	o.m["apd.probes"] = float64(probes - scanProbes)
	o.m["scan.probe_busy_s"] = float64(busy) / 1e9
	o.m["scan.shard_skew"] = median(skews)
	o.m["scan.success_ratio"] = float64(succ) / float64(max(scanProbes, 1))
	o.m["apd.aliased_prefixes"] = float64(rec.AliasedPrefixes)
	o.m["gfw.injected_dns"] = float64(injected)
	o.m["tga.candidates"] = float64(tgaCand)
	o.m["tga.responsive"] = float64(tgaResp)
	o.m["tga.hit_ratio"] = float64(tgaResp) / float64(max(tgaCand, 1))
	o.m["tga.refrozen_shards"] = float64(tgaRefrozen)
	refrozen1, shared1, _ := l.svc.QueryHandle().PublishStats()
	o.m["serve.publish_build_s"] = l.pubBuild
	o.m["serve.refrozen"] = float64(refrozen1 - l.refrozen0)
	o.m["serve.shared"] = float64(shared1 - l.shared0)
	if l.tr != nil {
		o.m["sources.addrs"] = float64(l.addrs.Load())
		o.m["core.run_scan_s"] = l.tr.total("core.run_scan")
		o.m["core.run_scan_cpu_s"] = l.cpu
		o.m["core.self_s"] = l.tr.selfTime("core.run_scan")
		o.m["core.alloc_mb"] = float64(l.alloc) / (1 << 20)
		o.m["sources.collect_s"] = l.tr.total("sources.collect")
		o.m["tga.wait_s"] = l.tr.total("tga.wait")
	}
	o.m["scan_p50_ms"] = median(l.lat)
	if p90 := quantile(append([]float64(nil), l.lat...), 0.9); countAbove(l.lat, p90) >= 10 {
		o.m["scan_p90_ms"] = p90
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// everyNth keeps every stride-th scheduled scan day.
func everyNth(days []int, stride int) []int {
	var out []int
	for i := 0; i < len(days); i += stride {
		out = append(out, days[i])
	}
	return out
}

// runSchedule is the shared body of timeline and tga-loop: set up, run
// the schedule, time it, then check the records.
func runSchedule(p params, tr *tracer, stride int, withTGA bool, digestKey string) (*outcome, error) {
	o := newOutcome()
	d, err := setUp(o, tr, 1.0/500, p.seed, func(int) core.Config {
		cfg := core.DefaultConfig(p.seed)
		cfg.GFWFilterFromDay = gfwFilterDay
		if withTGA {
			cfg.ServeSnapshots = true
			cfg.TGAFeed = newTGAFeed(tr)
		}
		return cfg
	}, nil)
	if err != nil {
		return nil, err
	}
	defer d.svc.Close()
	log := newScanLog(tr, d, "core.run_scan")
	ctx := context.Background()
	t0 := time.Now()
	for k, day := range everyNth(d.w.ScanDays, stride) {
		if _, err := log.scan(ctx, k, day); !o.op(err, fmt.Sprintf("RunScan day %d", day)) {
			break
		}
	}
	o.m["wall_s"] = time.Since(t0).Seconds()
	o.m["max_rss_mb"] = maxRSSMB()
	log.layerMetrics(o)

	checkFunnel(o, d.svc, !withTGA)
	rows := recordRows(d.svc.Records(), withTGA)
	checkDigest(o, digestKey, p.seed, rows)
	return o, nil
}

// runTimeline times the plain timeline, then runs the pipeline again
// with durability on.
func runTimeline(p params, tr *tracer) (*outcome, error) {
	o, err := runSchedule(p, tr, 1, false, "timeline")
	if err != nil {
		return nil, err
	}
	return o, runDurable(p, tr, o)
}

func runTGALoop(p params, tr *tracer) (*outcome, error) {
	return runSchedule(p, tr, 4, true, "tga-loop")
}

// durableScale and durableStride shape the zmap6sim -timeline -ckpt
// deployment; durableBudget makes its cumulative sets spill.
//
// That deployment is disk-bound: nearly all its time is fsync and the
// unlinking of synced files, whose latency on shared storage varies by
// more than the end-to-end bounds from run to run. So it is not a
// workload of its own with gated metrics: runDurable adds its timings to
// the timeline workload as per-layer metrics, and its checks to the
// run's operations.
const (
	durableScale   = 1.0 / 2000
	durableStride  = 8
	durableBudget  = 256 << 10
	durableResumes = 5
)

func runDurable(p params, tr *tracer, o *outcome) error {
	ckptDir := filepath.Join(p.dir, "ckpt")
	cfgFor := func(spill string) core.Config {
		cfg := core.DefaultConfig(p.seed)
		cfg.GFWFilterFromDay = gfwFilterDay
		cfg.CheckpointDir = ckptDir
		cfg.MemoryBudget = durableBudget
		cfg.SpillDir = spill
		return cfg
	}
	d, err := setUp(newOutcome(), tr, durableScale, p.seed, func(rep int) core.Config {
		return cfgFor(filepath.Join(p.dir, fmt.Sprintf("spill-%d", rep)))
	}, nil)
	if err != nil {
		return err
	}
	defer d.svc.Close()
	log := newScanLog(tr, d, "durable.run_scan")
	ctx := context.Background()
	days := everyNth(d.w.ScanDays, durableStride)
	var ckptMs []float64
	var write, cpu, full, delta, bytes, files float64
	t0 := time.Now()
	for k, day := range days {
		if _, err := log.scan(ctx, k, day); !o.op(err, fmt.Sprintf("RunScan day %d", day)) {
			break
		}
		sp := tr.begin("ckpt.write", k)
		t, err := measure(func() error { return d.svc.Checkpoint(ckptDir) })
		tr.end(sp)
		if !o.op(err, fmt.Sprintf("Checkpoint after day %d", day)) {
			break
		}
		ckptMs = append(ckptMs, t.wall*1e3)
		if tr == nil {
			continue
		}
		write += t.wall
		cpu += t.cpu
		m, err := ckpt.ReadManifest(ckptDir)
		if !o.op(err, "reading checkpoint manifest") {
			continue
		}
		if m.Depth == 0 {
			full += t.wall
		} else {
			delta += t.wall
		}
		for _, f := range m.Files {
			bytes += float64(f.Bytes)
		}
		files += float64(len(m.Files))
	}
	o.m["durable.wall_s"] = time.Since(t0).Seconds()
	o.m["durable.scan_p50_ms"] = median(log.lat)
	o.m["ckpt_p50_ms"] = median(ckptMs)
	o.m["ckpt.write_s"] = write
	o.m["ckpt.cpu_s"] = cpu
	o.m["ckpt.offcpu_s"] = write - cpu
	o.m["ckpt.full_s"] = full
	o.m["ckpt.delta_s"] = delta
	o.m["ckpt.bytes"] = bytes
	o.m["ckpt.files"] = files
	o.m["ip6.spilled_runs"] = float64(d.svc.SpilledRuns())
	diskBytes, err := dirBytes(ckptDir + "*")
	o.op(err, "sizing checkpoint directories")
	o.m["disk_mb"] = float64(diskBytes) / (1 << 20)

	// Resume the final checkpoint several times (resume_s and its CPU
	// time are medians); each restored service must hold the live
	// service's records and funnel.
	var resume, resumeCPU []float64
	for r := 0; r < durableResumes; r++ {
		sp := tr.begin("core.resume", r)
		var rs *core.Service
		t, err := measure(func() (err error) {
			rs, err = core.Resume(ckptDir, cfgFor(filepath.Join(p.dir, fmt.Sprintf("spill-resume-%d", r))), d.w.Net, d.feeds, d.w.Blocklist)
			return err
		})
		tr.end(sp)
		if !o.op(err, "Resume") {
			continue
		}
		resume = append(resume, t.wall)
		resumeCPU = append(resumeCPU, t.cpu)
		o.check(sameRecords(rs.Records(), d.svc.Records()), "resumed records differ from the live service's")
		o.check(rs.Funnel() == d.svc.Funnel(), "resumed funnel %+v, live %+v", rs.Funnel(), d.svc.Funnel())
		rs.Close()
	}
	o.m["resume_s"] = median(resume)
	o.m["ckpt.resume_cpu_s"] = median(resumeCPU)

	// The durable, spilling run must produce the records of a plain
	// in-memory run of the same schedule.
	checkFunnel(o, d.svc, true)
	w, feeds, err := buildWorld(durableScale, p.seed)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(p.seed)
	cfg.GFWFilterFromDay = gfwFilterDay
	ref := core.NewService(cfg, w.Net, feeds, w.Blocklist)
	for _, day := range days {
		if _, err := ref.RunScan(ctx, day); !o.op(err, "reference RunScan") {
			break
		}
	}
	o.check(sameRecords(ref.Records(), d.svc.Records()), "durable records differ from the in-memory run's")
	return nil
}
