// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed for a fixed time, checks every output it
// produced, and prints the workload's metrics by name with their units.
//
//	perfbench --workload sweep-exact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// benchmark-side tracing. With --trace 1 it records spans around each call
// into a layer, joins them with the spans the daemons expose on
// GET /debug/traces, writes them to .bench_build/spans-<workload>-<seed>.jsonl
// and prints per-layer metrics instead. The last line of standard output is
// always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every output check passed.
//
// Run it through perfbench/run.sh from the repository root, which builds it
// from the checkout's sources first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// nproc bounds every source of concurrency the benchmark drives: engine
// workers, requests in flight and connections per host.
var nproc = runtime.NumCPU()

// End-to-end metrics, printed with --trace 0 on every workload.
var endToEnd = []struct{ name, unit string }{
	{"sim_insts_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"sample_ipc_err_pct", "%"},
	{"slo_ok_ratio", "ratio"},
}

// Per-layer metrics, printed with --trace 1 on every workload; a layer a
// workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"pipeline.ns_per_inst", "ns"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.share", "ratio"},
	{"emu.ff_insts_per_s", "1/s"},
	{"emu.ff_share", "ratio"},
	{"engine.overhead_share", "ratio"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.ckpt_hit_ratio", "ratio"},
	{"engine.fast_forwards", "count"},
	{"host.allocs_per_kinst", "count"},
	{"host.alloc_bytes_per_inst", "B"},
	{"host.gc_cpu_share", "ratio"},
	{"host.steal_share", "ratio"},
	{"store.share", "ratio"},
	{"store.ckpt_get_us_p50", "us"},
	{"store.ckpt_put_us_p50", "us"},
	{"store.mem_ms_p50", "ms"},
	{"store.disk_ms_p50", "ms"},
	{"store.peer_ms_p50", "ms"},
	{"store.origin_memory_share", "ratio"},
	{"store.origin_disk_share", "ratio"},
	{"store.origin_peer_share", "ratio"},
	{"store.origin_computed_share", "ratio"},
	{"store.coalesced", "count"},
	{"store.wb_drops", "count"},
	{"server.share", "ratio"},
	{"server.self_ms_p50", "ms"},
	{"server.gate_wait_ms_p90", "ms"},
	{"server.store_probe_ms_p50", "ms"},
	{"server.encode_ms_p50", "ms"},
	{"cluster.share", "ratio"},
	{"cluster.self_ms_p50", "ms"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.merge_ms_p50", "ms"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"api.share", "ratio"},
	{"api.bytes_per_cell", "B"},
	{"http.share", "ratio"},
	{"http.client_ms_p50", "ms"},
	{"loadgen.share", "ratio"},
	{"loadgen.hit_p50_ms", "ms"},
	{"loadgen.hit_p90_ms", "ms"},
	{"loadgen.cold_p50_ms", "ms"},
	{"loadgen.cold_p90_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.slot_wait_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"model.ipc_mean", "ratio"},
	{"model.rex_svw_over_raw", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.closure_err_pct", "%"},
}

// closureTolerancePct is how far, in percent, the traced run's summed
// layer self times may sit from the time they account for (wall time ×
// workers on the sweeps, request time on fabric-mix) before the run fails.
// Parallel children (a sweep's cells dispatched side by side) are counted
// once per child, so fabric-mix legitimately sits a little above zero.
const closureTolerancePct = 10

// options are one run's flags.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string // where the traced run writes its spans
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	digest            string   // digest of every simulated result produced
	checkErrs         []string // failed output checks
}

func (o *outcome) fail(format string, args ...any) {
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"sweep-exact":   func(o options) (*outcome, error) { return runSweep(o, false) },
	"sweep-sampled": func(o options) (*outcome, error) { return runSweep(o, true) },
	"fabric-mix":    runFabric,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		outDir:  ".bench_build",
	}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("digest %s seed=%d %s\n", *name, *seed, out.digest)
	for _, e := range out.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", e)
	}
	res := resultJSON{
		Correct:   len(out.checkErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON),
	}
	table, vals := endToEnd, out.e2e
	if opts.traced {
		table, vals = perLayer, out.layer
	}
	for _, m := range table {
		res.Metrics[m.name] = metricJSON{Value: vals[m.name], Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spanPath is where a traced run writes its spans.
func (o options) spanPath(workload string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, o.seed))
}
