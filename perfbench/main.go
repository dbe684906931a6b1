// Command perfbench is the repository's reproduction benchmark. It runs
// one named workload of the hitlist pipeline at a given seed, checks its
// outputs, and prints its metrics; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload timeline --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrappers installed. With --trace 1 the workload runs twice, untraced
// and then traced, and the metrics are the per-layer ones from the
// traced pass, plus the tracing overhead; the spans are written as JSON
// under .bench_run. Every metric is listed in BENCHMARK.json, which the
// command reads from the working directory and checks against its own
// tables. run.sh builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// metricDef describes one reported metric. For a per-layer metric,
// moves names the end-to-end metric the layer should move and on the
// workload where it should move it.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of the pipeline sees, gated with a
// bound in BENCHMARK.json. Every workload has all of them: wall_s is the
// scan schedule from the first RunScan until the last is done; on serve,
// whose scans are paced, it is the summed time of the scans that publish
// under query load.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "scan_p50_ms", unit: "ms", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
}

// durablePhase is where the durable deployment's metrics come from: it
// runs after the timeline workload's timed schedule (see runDurable).
const durablePhase = "timeline (durable phase)"

// perLayer are the traced run's metrics. Metrics that describe a layer
// a workload never enters read 0 on that workload. The workload-specific
// user metrics (checkpoint, resume, query latency) are here too: they
// exist on one workload only, so they cannot be gated beside the shared
// end-to-end metrics.
var perLayer = []metricDef{
	{"worldgen.generate_s", "s", "lower", "setup_s", "all"},
	{"sources.collect_s", "s", "lower", "wall_s", "timeline"},
	{"sources.addrs", "count", "lower", "wall_s", "timeline"},
	{"core.run_scan_s", "s", "lower", "wall_s, scan_p50_ms", "timeline, tga-loop"},
	{"core.run_scan_cpu_s", "s", "lower", "wall_s, scan_p50_ms", "timeline, tga-loop"},
	{"core.self_s", "s", "lower", "wall_s", "timeline"},
	{"core.alloc_mb", "MB", "lower", "wall_s, max_rss_mb", "timeline"},
	{"core.probes", "count", "lower", "fixed work", "all"},
	{"scan.probes", "count", "lower", "fixed work", "all"},
	{"apd.probes", "count", "lower", "wall_s", "timeline"},
	{"scan.probe_busy_s", "s", "lower", "wall_s, scan_p90_ms", "timeline"},
	{"scan.shard_skew", "ratio", "lower", "scan_p90_ms", "timeline"},
	{"scan.success_ratio", "ratio", "higher", "fixed work", "timeline"},
	{"apd.aliased_prefixes", "count", "lower", "fixed work", "timeline"},
	{"gfw.injected_dns", "count", "lower", "fixed work", "timeline"},
	{"tga.wait_s", "s", "lower", "wall_s", "tga-loop"},
	{"tga.candidates", "count", "lower", "wall_s", "tga-loop"},
	{"tga.responsive", "count", "higher", "wall_s", "tga-loop"},
	{"tga.hit_ratio", "ratio", "higher", "wall_s", "tga-loop"},
	{"tga.refrozen_shards", "count", "lower", "wall_s", "tga-loop"},
	{"serve.publish_build_s", "s", "lower", "wall_s; dns_p99_ms", "tga-loop; serve"},
	{"serve.refrozen", "count", "lower", "wall_s; dns_p99_ms", "tga-loop; serve"},
	{"serve.shared", "count", "higher", "wall_s; dns_p99_ms", "tga-loop; serve"},
	{"serve.dns_p99_ms.r10k", "ms", "lower", "dns_max_qps", "serve"},
	{"serve.dns_p99_ms.r30k", "ms", "lower", "dns_max_qps", "serve"},
	{"serve.dns_p99_ms.r60k", "ms", "lower", "dns_max_qps", "serve"},
	{"serve.dns_p99_ms.r90k", "ms", "lower", "dns_max_qps", "serve"},
	{"serve.sender_late_ms", "ms", "lower", "dns_max_qps", "serve"},
	{"serve.dns_lost", "count", "lower", "dns_loss", "serve"},
	{"serve.dns_wrong", "count", "lower", "error_rate", "serve"},
	{"serve.http_errors", "count", "lower", "error_rate", "serve"},
	{"ckpt.write_s", "s", "lower", "durable.wall_s, ckpt_p50_ms", durablePhase},
	{"ckpt.cpu_s", "s", "lower", "durable.wall_s, ckpt_p50_ms", durablePhase},
	{"ckpt.offcpu_s", "s", "lower", "durable.wall_s, ckpt_p50_ms", durablePhase},
	{"ckpt.full_s", "s", "lower", "durable.wall_s", durablePhase},
	{"ckpt.delta_s", "s", "lower", "durable.wall_s", durablePhase},
	{"ckpt.bytes", "bytes", "lower", "disk_mb, durable.wall_s", durablePhase},
	{"ckpt.files", "count", "lower", "disk_mb, durable.wall_s", durablePhase},
	{"ckpt.resume_cpu_s", "s", "lower", "resume_s", durablePhase},
	{"ip6.spilled_runs", "count", "lower", "durable.wall_s", durablePhase},
	{"scan_p90_ms", "ms", "lower", "user metric", "timeline (needs 100 scans)"},
	{"durable.wall_s", "s", "lower", "user metric", durablePhase},
	{"durable.scan_p50_ms", "ms", "lower", "user metric", durablePhase},
	{"ckpt_p50_ms", "ms", "lower", "user metric", durablePhase},
	{"resume_s", "s", "lower", "user metric", durablePhase},
	{"disk_mb", "MB", "lower", "user metric", durablePhase},
	{"dns_p50_ms", "ms", "lower", "user metric", "serve"},
	{"dns_p99_ms", "ms", "lower", "user metric", "serve"},
	{"dns_max_qps", "qps", "higher", "user metric", "serve"},
	{"dns_loss", "ratio", "lower", "user metric", "serve"},
	{"http_p99_ms", "ms", "lower", "user metric", "serve"},
	{"error_rate", "ratio", "lower", "user metric", "all"},
	{"trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s", "all"},
}

// params are one run's inputs.
type params struct {
	seed    uint64
	seconds int
	dir     string // private scratch directory of this run
}

// outcome is one pass of a workload: its operation and check counts and
// the metrics it measured, by name.
type outcome struct {
	attempted, failed int
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// op counts one program operation and reports whether it succeeded.
func (o *outcome) op(err error, what string) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

var workloads = map[string]func(params, *tracer) (*outcome, error){
	"timeline": runTimeline,
	"tga-loop": runTGALoop,
	"serve":    runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: timeline, tga-loop or serve")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed (world, service and query generation)")
		seconds = flag.Int("seconds", 10, "serve: length of the query-rate ladder; the other workloads run a fixed schedule")
		trace   = flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload timeline|tga-loop|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	base := ".bench_run"
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// A run that was killed leaves its scratch directory behind.
	stale, _ := filepath.Glob(filepath.Join(base, "*-*"))
	for _, dir := range stale {
		if info, err := os.Stat(dir); err == nil && info.IsDir() {
			os.RemoveAll(dir)
		}
	}
	p := params{seed: *seed, seconds: *seconds}
	pass := func(tr *tracer) *outcome {
		dir, err := os.MkdirTemp(base, *name+"-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		p.dir = dir
		o, err := run(p, tr)
		// Removing the durable phase's synced files is slow on some file
		// systems; it happens here, after every timed region.
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			os.Exit(1)
		}
		return o
	}

	var o *outcome
	metrics := endToEnd
	if *trace == 0 {
		o = pass(nil)
	} else {
		plain := pass(nil)
		tr := newTracer()
		o = pass(tr)
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.m["trace.overhead_s"] = o.m["wall_s"] - plain.m["wall_s"]
		path := filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		metrics = perLayer
	}
	o.m["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	report(*name, *seed, o, metrics)
	if o.failed > 0 {
		os.Exit(1)
	}
}

// report prints every metric of the pass, then the result line.
func report(name string, seed uint64, o *outcome, metrics []metricDef) {
	fmt.Printf("workload %s seed %d: %d operations and checks, %d failed\n", name, seed, o.attempted, o.failed)
	keys := make([]string, 0, len(o.m))
	for k := range o.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	units := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m
	}
	for _, k := range keys {
		m := units[k]
		line := fmt.Sprintf("  %-24s %14.6g %s", k, o.m[k], m.unit)
		if m.moves != "" {
			line += fmt.Sprintf("  (moves %s on %s)", m.moves, m.on)
		}
		fmt.Println(line)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		v, ok := o.m[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// checkManifest verifies that BENCHMARK.json lists exactly the metrics
// this command reports, with the same units and directions.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit, Better string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for kind, lists := range map[string]struct {
		listed []entry
		ours   []metricDef
	}{"end_to_end": {m.EndToEnd, endToEnd}, "per_layer": {m.PerLayer, perLayer}} {
		ours := make([]entry, len(lists.ours))
		for i, d := range lists.ours {
			ours[i] = entry{d.name, d.unit, d.better}
		}
		if !slices.Equal(lists.listed, ours) {
			return fmt.Errorf("%s %s lists %v, the benchmark reports %v", path, kind, lists.listed, ours)
		}
	}
	return nil
}
