// Command perfbench is the repository benchmark: it drives the public
// entry points of the simulator and of the live gateway/runtime through
// four seeded workloads and prints one JSON result line. See README.md
// for what each workload loads and what every metric means.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and with every layer wrapped in timing
// spans, reports the per-layer metrics plus the traced-minus-untraced
// difference of each end-to-end metric, and writes the spans to
// .bench_build/spans-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable dump.
type metricSet struct {
	names *[]string
	vals  map[string]metric
}

func newMetricSet() metricSet {
	return metricSet{names: new([]string), vals: map[string]metric{}}
}

func (m metricSet) add(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		*m.names = append(*m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// outcome is what a workload run returns: its metrics, how many
// operations it attempted and how many failed, and the first failed
// output check, if any.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	check     error
	notes     []string // printed before the result, such as sample counts
}

// e2eNames lists the end-to-end metrics in report order; every workload
// reports each of them.
var e2eNames = []string{
	"setup_s", "eval_s", "lat_p50_ms", "lat_p99_ms", "sla_attain",
	"cost_per_1k_usd", "heap_mb", "cpu_us_per_req", "max_rps",
}

// layerNames lists the per-layer metrics of a traced run, with units, in
// report order. Every traced run reports each of them; a layer a workload
// does not exercise reads 0.
var layerNames = [][2]string{
	{"gateway.invoke_overhead_us_p50", "us"}, {"gateway.invoke_overhead_us_p99", "us"},
	{"gateway.scrape_ms_p50", "ms"}, {"gateway.scrape_ms_max", "ms"}, {"gateway.scrape_growth", "ratio"},
	{"gateway.scrape_kb", "KiB"}, {"gateway.rejected", "count"},
	{"serving.lock_probe_us_p99", "us"}, {"serving.lock_probe_ms_max", "ms"},
	{"serving.snapshot_ms_end", "ms"}, {"serving.inflight_max", "count"},
	{"clock.after_per_req", "count"},
	{"tracing.requests_retained", "count"}, {"tracing.container_spans_retained", "count"},
	{"tracing.recorder_cpu_us_per_req", "us"},
	{"simulator.self_s", "s"}, {"simulator.self_ns_per_req", "ns"},
	{"controller.setup_ms", "ms"}, {"controller.window_us_p50", "us"}, {"controller.window_us_p99", "us"},
	{"controller.window_ms_max", "ms"}, {"controller.window_s_total", "s"}, {"controller.window_growth", "ratio"},
	{"core.replans", "count"}, {"core.replan_ms_total", "ms"}, {"core.replan_ms_max", "ms"},
	{"core.nodes_explored", "count"}, {"core.cache_hit_ratio", "ratio"}, {"core.memo_ratio", "ratio"},
	{"forecast.fit_calls", "count"}, {"forecast.fit_s_total", "s"}, {"forecast.fit_s_max", "s"},
	{"forecast.predict_calls", "count"}, {"forecast.predict_us_p50", "us"},
	{"forecast.predict_s_total", "s"}, {"forecast.update_s_total", "s"},
	{"loadgen.send_lag_ms_p99", "ms"}, {"loadgen.send_lag_ms_max", "ms"},
}

// initLayers adds every per-layer metric at 0, fixing the report order.
func initLayers(m metricSet) {
	for _, l := range layerNames {
		m.add(l[0], 0, l[1])
	}
}

// spanDir is where traced runs leave their spans, inside the checkout.
const spanDir = ".bench_build"

type workload func(seed int64, seconds float64, traced bool) outcome

var workloads = map[string]workload{
	"sim-paper":      simPaper,
	"sim-lstm":       simLSTM,
	"serve-capacity": serveCapacity,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sim-paper, sim-lstm or serve-capacity")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measurement budget in wall seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer report instead of the end-to-end one")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	out := w(*seed, *seconds, *trace == 1)
	if out.check == nil && out.attempted < 1 {
		out.check = errors.New("no operation attempted")
	}
	for _, n := range *out.metrics.names {
		m := out.metrics.vals[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if out.check != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %v\n", *name, *seed, out.check)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.check == nil, out.attempted, out.failed, out.metrics.vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.check != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// overhead adds, for every end-to-end metric, the traced run's value minus
// the untraced run's.
func overhead(out, traced, untraced metricSet) {
	for _, n := range e2eNames {
		out.add("overhead."+n, traced.vals[n].Value-untraced.vals[n].Value, traced.vals[n].Unit)
	}
}
