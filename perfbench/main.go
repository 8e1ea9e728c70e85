// Command perfbench is the repository's benchmark: four seeded workloads
// (solve, serve, churn, routed) that drive the unmodified influmax program
// through its public packages, check every output, and print the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced run. README.md in this directory maps every metric to
// its layer, its end-to-end metric and its workload.
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are a
// human-readable report: the nine end-to-end figures README.md names, each
// with its unit and sample count, and for traced runs the time by layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the gated metrics every untraced run prints, on every
// workload. "op" is the workload's user-facing operation: one imm.Run on
// solve, one query on serve and routed, one delta batch on churn. On churn
// ops_per_s is the reader's queries per second instead: the writer's batch
// rate is fixed by its schedule.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// does not run reports 0.
var perLayer = []metricDef{
	{"sampling.estimate_s", "s"},
	{"sampling.final_s", "s"},
	{"sampling.samples", "count"},
	{"sampling.entries", "count"},
	{"sampling.ns_per_entry", "ns"},
	{"sampling.lane_occupancy", "ratio"},
	{"sampling.balance", "ratio"},
	{"estimate.rounds", "count"},
	{"estimate.select_s", "s"},
	{"estimate.overshoot", "count"},
	{"rrr.index_build_s", "s"},
	{"rrr.transcode_s", "s"},
	{"rrr.store_mb", "MB"},
	{"rrr.index_mb", "MB"},
	{"select.s", "s"},
	{"select.k1_ms", "ms"},
	{"select.per_seed_ms", "ms"},
	{"select.budgeted_ms", "ms"},
	{"select.targeted_ms", "ms"},
	{"select.blocked_ms", "ms"},
	{"select.spread_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.resp_kb", "KB"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"router.rounds", "count"},
	{"router.start_ms", "ms"},
	{"router.round_ms", "ms"},
	{"router.slowest_share", "ratio"},
	{"router.shard_op_ms", "ms"},
	{"router.wire_kb_per_query", "KB"},
	{"router.overhead_ms", "ms"},
	{"shard.sessions_max", "count"},
	{"cluster.build_s", "s"},
	{"delta.apply_ms", "ms"},
	{"delta.candidates", "count"},
	{"delta.repaired", "count"},
	{"delta.repair_yield", "ratio"},
	{"delta.coalesced", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.layer_sum_err", "ratio"},
	{"trace.phase_err", "ratio"},
}

// layerSumTolerance bounds |layer time - wall| / wall on every checked
// track of a traced run.
const layerSumTolerance = 0.10

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	tr       *Tracer // nil for the untraced run
	outDir   string

	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	report    []string // human-readable lines printed before the JSON
}

// set records a metric; the unit comes from the metric lists.
func (r *run) set(name string, v float64) {
	for _, d := range append(endToEnd, perLayer...) {
		if d.Name == name {
			r.metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

// ok counts one attempted operation that succeeded.
func (r *run) ok() { r.attempted++ }

// fail counts one attempted operation that failed, with the reason.
func (r *run) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a correctness check: a false cond fails the run. It
// returns cond.
func (r *run) check(cond bool, format string, args ...any) bool {
	if cond {
		r.ok()
	} else {
		r.fail(format, args...)
	}
	return cond
}

// line appends one line to the human-readable report.
func (r *run) line(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// timing prints one latency distribution as README.md names it: median,
// the named percentile and the sample count.
func (r *run) timing(name string, ms []float64, pct float64) {
	if len(ms) == 0 {
		r.line("%-14s n/a (0 samples)", name)
		return
	}
	r.line("%-14s p50 %.3f ms  p%g %.3f ms  (%d samples)", name,
		quantile(ms, 0.5), pct*100, quantile(ms, pct), len(ms))
}

var workloads = map[string]func(*run) error{
	"solve":  runSolve,
	"serve":  runServe,
	"churn":  runChurn,
	"routed": runRouted,
}

func main() {
	var (
		workload = flag.String("workload", "", "solve, serve, churn or routed")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		traceOn  = flag.Int("trace", 0, "1 runs the traced workload and prints the per-layer metrics")
		outDir   = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload solve|serve|churn|routed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		outDir:   *outDir,
		metrics:  map[string]metric{},
	}
	if *traceOn == 1 {
		r.tr = NewTracer()
		for _, d := range perLayer {
			r.set(d.Name, 0)
		}
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if r.tr != nil {
		want = perLayer
		if err := r.tr.WriteFile(fmt.Sprintf("%s/spans-%s-%d.jsonl", r.outDir, r.workload, r.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	out := map[string]metric{}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			os.Exit(1)
		}
		out[d.Name] = m
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, l := range r.report {
		fmt.Println(l)
	}
	enc, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// setEndToEnd records the gated metrics from a run's set-up times, the
// ops' latencies in ms and the completed ops per second.
func (r *run) setEndToEnd(setups, opsMS []float64, perSecond, rss float64) {
	r.set("setup_s", median(setups))
	r.set("op_p50_ms", median(opsMS))
	r.set("op_tail_ms", quantile(opsMS, tailQuantile(len(opsMS))))
	r.set("ops_per_s", perSecond)
	r.set("peak_rss_mb", rss)
}

// perSecond is n over d in seconds.
func perSecond(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(rank(len(s), q)-1, 0), len(s)-1)]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 and p50 that leaves at least ten
// samples beyond it; with fewer than 20 samples it is the maximum.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.9, 0.5} {
		if n-rank(n, q) >= 10 {
			return q
		}
	}
	return 1
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int { return int(math.Ceil(float64(n)*q - 1e-9)) }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// releaseMemory returns garbage from a discarded set-up to the OS, so the
// next set-up starts from the same resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// secs and millis convert durations for reporting.
func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRuns is how many times a run sets the workload up; setup_s is the
// median.
const setupRuns = 5
