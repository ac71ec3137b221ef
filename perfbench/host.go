package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
)

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// processCPU is the CPU time every thread of this process has run so far
// (CLOCK_PROCESS_CPUTIME_ID). Linux leaves out time a thread waited for a
// CPU and time the hypervisor took from the virtual CPU it ran on, so on a
// shared VM it follows the program's work where wall time also follows its
// neighbours: on a 2-vCPU VM whose hypervisor took 0–23% of the CPU time,
// ten-seed spreads of sim_insts_per_s fell from up to 0.45 in wall time to
// 0.05–0.11 in CPU time.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSample is a snapshot of the Go runtime's allocation and GC counters
// and of the machine's CPU time counters.
type hostSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	steal, machine     uint64 // /proc/stat clock ticks: stolen, all
}

// machineTicks reads the aggregate cpu line of /proc/stat: the ticks the
// hypervisor stole from this machine's CPUs and the ticks of every kind.
// Both are 0 where the file or the steal column is missing.
func machineTicks() (steal, all uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += n
		if i == 7 {
			steal = n
		}
	}
	return steal, all
}

func sampleHost() hostSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	h := hostSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
	h.steal, h.machine = machineTicks()
	return h
}

// hostMetrics fills the host.* layer metrics for the interval between two
// samples, normalized by the simulated instructions covered in it.
func hostMetrics(layer map[string]float64, start, end hostSample, insts float64) {
	layer["host.allocs_per_kinst"] = ratio(float64(end.allocs-start.allocs), insts/1000)
	layer["host.alloc_bytes_per_inst"] = ratio(float64(end.allocBytes-start.allocBytes), insts)
	layer["host.gc_cpu_share"] = ratio(end.gcCPU-start.gcCPU, end.totalCPU-start.totalCPU)
	// The share of the machine's CPU time the hypervisor took: not a layer
	// of the program, but on a shared VM it moves every time-based figure.
	layer["host.steal_share"] = ratio(float64(end.steal-start.steal), float64(end.machine-start.machine))
}

// digest accumulates every simulated result a run produced, so two
// commits running the same seed can be compared exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(bench, config string, insts uint64, st *pipeline.Stats) {
	fmt.Fprintf(d.h, "%s|%s|%d|%+v\n", bench, config, insts, *st)
}

func (d *digest) addBytes(b []byte) { d.h.Write(b) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// Budgets and sampling of the sweeps, as the repository's own engine
// benchmarks set them (internal/sim/engine/bench_test.go): BenchmarkEngine
// simulates 20000 instructions per cell exactly, BenchmarkEngineSampled
// 10× that budget under 2000:2000:50000 sampling. A sampled cell then has
// four detailed windows of sampleSpec.Warmup+sampleSpec.Detail commits, at
// 0, 50000, 100000 and 150000 instructions, the rest of each period
// fast-forwarded.
var sampleSpec = pipeline.SampleSpec{Warmup: 2000, Detail: 2000, Period: 50000}

const (
	exactInsts   = 20_000          // per-cell budget of sweep-exact
	sampledInsts = 10 * exactInsts // per-cell budget of sweep-sampled
)

// errorConfigs are the configurations the held-out error is measured on:
// one SVW rung of each load optimization plus a baseline.
var errorConfigs = []string{"base-ssq", "nlq+svw", "ssq+svw", "rle+svw"}

// heldOutIPCError is the median over the held-out kernels × errorConfigs
// of the absolute IPC error, in percent, of sampled against exact
// simulation at the sampled sweep's budget. It runs outside every timed
// window. The median rather than the mean: one kernel (vortex) samples
// about twice as accurately as the rest, which made a mean swing with
// whether the seed held it out.
func heldOutIPCError(ctx context.Context, kernels []string) (float64, error) {
	var exact, sampled []engine.Job
	for _, k := range kernels {
		for _, name := range errorConfigs {
			cfg, ok := sim.ConfigByName(name)
			if !ok {
				return 0, fmt.Errorf("unknown config %q", name)
			}
			j := engine.Job{Study: "heldout", Label: name, Config: cfg, Bench: k, Insts: sampledInsts}
			exact = append(exact, j)
			j.Sample = sampleSpec
			sampled = append(sampled, j)
		}
	}
	eng := engine.New(nproc)
	st, err := store.Open(store.Options{MemoryEntries: 4096})
	if err != nil {
		return 0, err
	}
	eng.SetCheckpointStore(engine.StoreCheckpoints(st))
	ex, err := eng.RunContext(ctx, exact, nil)
	if err != nil {
		return 0, err
	}
	sa, err := eng.RunContext(ctx, sampled, nil)
	if err != nil {
		return 0, err
	}
	errs := make([]float64, len(ex))
	for i := range ex {
		e, s := ex[i].Result.IPC(), sa[i].Result.IPC()
		if e <= 0 {
			return 0, fmt.Errorf("%s on %s: exact IPC %v", ex[i].Job.Bench, ex[i].Job.Label, e)
		}
		errs[i] = 100 * math.Abs(s-e) / e
	}
	return median(errs), nil
}

// modelMetrics fills the model.* layer metrics from one pass's results:
// the mean IPC, and re-executed loads with SVW over those without it on
// the NLQ and SSQ ladders. A change meant only to speed the simulator up
// must leave both exactly equal.
func modelMetrics(layer map[string]float64, results []engine.Result) {
	var ipc, svw, raw float64
	for i := range results {
		r := &results[i]
		ipc += r.IPC()
		switch r.Config {
		case "nlq+SVW+UPD", "ssq+SVW+UPD":
			svw += float64(r.Stats.RexLoads)
		case "nlqraw", "ssqraw":
			raw += float64(r.Stats.RexLoads)
		}
	}
	layer["model.ipc_mean"] = ratio(ipc, float64(len(results)))
	layer["model.rex_svw_over_raw"] = ratio(svw, raw)
}
