// Command perfbench is the repository's benchmark: one command that drives a
// named workload against the statistics service or the tuner, checks the
// outputs, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.go for their parameters):
//
//   - serve_read: open-loop Explain/Exec traffic from two tenants against a
//     cmd/autostatsd child process; the plan-cache hit path.
//   - serve_rw: open-loop Rags U25-S traffic with DML and periodic Maintain
//     against a fresh daemon; the miss, write and maintenance paths.
//   - tune: in-process System.TuneWorkload of Rags U0-C-100 (MNSA/D plus
//     Shrinking Set) on fresh TPCD_2 systems; the paper's own workload.
//
// With --trace 0 the run is untraced and the last line of standard output is
// a JSON object carrying the end-to-end metrics. With --trace 1 the same run
// is followed by a replay of the same generated inputs through each layer's
// public functions, in alternating untraced rounds and rounds with spans
// recorded around every call (trace.go), and the JSON line carries the per-layer metrics; the
// spans are written to .bench_build/trace-<workload>-<seed>.jsonl.
//
// The report before the JSON line prints every end-to-end metric (allE2E)
// and, traced, every per-layer metric (allLayer), as n/a where a workload
// does not exercise it, plus the bases of every ratio. The JSON line carries
// the subsets every workload measures (keyE2E, keyLayer), because each run
// must report the same metric names. cpu_ms_per_op is taken from each
// workload's own traffic: the daemon's CPU time per request of the
// open-loop phase, which Explains, Execs, DML and Maintain all load, and for
// tune this process's CPU time per tuned query. The other JSON metrics come
// from set-up, which serve_read and serve_rw share: the same daemon start,
// tenants, pre-tune and template executions, so those metrics read alike on
// both. The latencies and max_rate_rps stay in the report. Tune has no
// Exec, DML, Maintain or rate ladder. Over ten seeds on a two-vCPU virtual
// machine the p99s and max_rate_rps spread by 0.2 to 1.6 of their median,
// more than the quarter a regression bound may be. explain_p50_ms is mostly
// the wake-ups of the client, the daemon and the loopback round trip, not
// the Explain's own 30 to 50 us of work: while the host is busy the same
// seed's serve_rw value went from 0.39 to 0.92 ms, and ten runs spread by
// up to 0.39 of their median. For tune it is an Explain with plan caching
// off, one optimizer call under the chosen statistics.
//
// Inputs come from --seed only: the request constants and DML keys of the
// serving workloads, serve_read's op mix and order, and the tuned
// workload's constants for tune. The tenants' TPC-D data (generator seed 42, as the daemon's
// default) and every workload's statement shapes are fixed, so runs with
// different seeds tune the same statistics and touch the same tables and
// columns. So is the workload whose execution cost tune reports (tune.go,
// execCost), because the executed cost of seed-drawn constants differs by
// a fifth between seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's numbers. Metrics named in keyE2E or keyLayer go
// into the JSON line; every metric is printed in the report.
type report struct {
	workload  string
	metrics   map[string]metric
	notes     []string
	failures  map[string]int // failure count by protocol code
	attempted int
	failed    int
	checkErrs []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, failures: map[string]int{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkFail records an output-check failure; a run with any is not correct.
func (r *report) checkFail(format string, args ...any) {
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	} else if len(r.checkErrs) == 20 {
		r.checkErrs = append(r.checkErrs, "further check failures suppressed")
	}
}

// keyE2E lists the end-to-end metrics of the JSON line: the ones every
// workload measures and that repeat within a quarter of their median from
// run to run. BENCHMARK.json names the same set.
var keyE2E = []string{
	"setup_s", "cpu_ms_per_op", "tune_s", "build_cost_units",
	"tuned_exec_cost_units", "rss_peak_mb",
}

// allE2E lists every end-to-end metric in report order; a workload that
// does not exercise one prints it as n/a.
var allE2E = []string{
	"setup_s", "explain_p50_ms", "explain_p99_ms", "exec_p50_ms", "exec_p99_ms",
	"dml_p50_ms", "dml_p99_ms", "maintain_p50_ms", "maintain_p90_ms",
	"max_rate_rps", "failed_frac", "cpu_ms_per_op", "tune_s", "build_cost_units",
	"tuned_exec_cost_units", "rss_peak_mb",
}

// allLayer lists every per-layer metric in report order.
var allLayer = []string{
	"loadgen.late_p50_us", "loadgen.late_p99_us", "loadgen.cpu_ms_per_req",
	"protocol.req_bytes", "protocol.resp_bytes", "protocol.encode_us", "protocol.decode_us",
	"server.cpu_ms_per_req", "server.rejected_frac", "server.admitted",
	"sqlparser.parse_us", "sqlparser.parse_allocs", "query.template_us",
	"optimizer.plancache.hit_ratio", "optimizer.plancache.hits", "optimizer.plancache.lookups",
	"optimizer.hit_us", "optimizer.format_us", "optimizer.miss_us", "optimizer.calls",
	"executor.run_us", "executor.rows_out", "executor.cost_units_per_row_out", "executor.dml_us",
	"autostats.render_us", "feedback.observations_per_exec", "feedback.correction_hits",
	"stats.maintain_us", "stats.refreshed", "stats.build_us", "stats.builds", "stats.build_cost_units",
	"histogram.build_us", "storage.scan_us", "storage.scan_rows_per_s",
	"core.candidates_per_query", "core.mnsa_us_per_query", "core.optimizer_calls_per_stat",
	"core.shrink_us", "core.shrink_optimizer_calls", "datagen.generate_s", "trace.overhead_pct",
}

// keyLayer lists the per-layer metrics of the traced JSON line: the layers
// every workload's traced replay exercises. BENCHMARK.json names the same set.
var keyLayer = []string{
	"sqlparser.parse_us", "sqlparser.parse_allocs", "query.template_us",
	"optimizer.miss_us", "optimizer.calls",
	"stats.build_us", "stats.builds", "stats.build_cost_units",
	"histogram.build_us", "storage.scan_us", "storage.scan_rows_per_s",
	"core.candidates_per_query", "core.mnsa_us_per_query", "core.optimizer_calls_per_stat",
	"core.shrink_us", "core.shrink_optimizer_calls",
	"datagen.generate_s", "trace.overhead_pct",
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: serve_read, serve_rw or tune")
		seed         = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 10, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1 replays the inputs through each layer with spans and reports per-layer metrics")
		root         = flag.String("root", "..", "root of the repository checkout (holds go.mod and cmd/autostatsd)")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	rep := newReport(name)
	var err error
	switch name {
	case "serve_read":
		err = runServe(readWorkload, seed, seconds, traced, root, rep)
	case "serve_rw":
		err = runServe(rwWorkload, seed, seconds, traced, root, rep)
	case "tune":
		err = runTune(seed, seconds, traced, root, rep)
	default:
		return fmt.Errorf("unknown workload %q (want serve_read, serve_rw or tune)", name)
	}
	if err != nil {
		return err
	}
	keys, listed := keyE2E, allE2E
	if traced {
		keys, listed = keyLayer, append(allE2E, allLayer...)
	}
	return rep.print(keys, listed)
}

// print writes the human-readable report (the listed metrics first, n/a
// where the workload does not measure one, then the rest) and then the JSON
// result line with the keys metrics.
func (r *report) print(keys, listed []string) error {
	seen := map[string]bool{}
	fmt.Printf("workload %s\n", r.workload)
	for _, n := range listed {
		seen[n] = true
		if m, ok := r.metrics[n]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
		} else {
			fmt.Printf("  %-36s %14s\n", n, "n/a")
		}
	}
	var rest []string
	for n := range r.metrics {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	fmt.Printf("  details:\n")
	for _, n := range rest {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	codes := make([]string, 0, len(r.failures))
	for c := range r.failures {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf("  failures[%s] = %d\n", c, r.failures[c])
	}
	for _, e := range r.checkErrs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	out := result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, k := range keys {
		m, ok := r.metrics[k]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, k)
			continue
		}
		out.Metrics[k] = m
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %s", r.workload, strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", r.workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
