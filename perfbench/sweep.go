package main

// sweep-exact and sweep-sampled: the researcher's path. Each pass runs one
// figure of the Fig. 5–8 study (its cells over every swept kernel) on a
// fresh engine through engine.RunContext. Passes cycle through the figures
// until the window ends.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/emu"
	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/store"
	"svwsim/internal/trace"
	"svwsim/internal/workload"
)

const (
	setupReps = 25 // set-ups per run; setup_s is their median
	// recheckCells is how many seeded cells are recomputed after the window.
	recheckCells = 6
	// Latency limits for slo_ok_ratio: a cell the fabric serves from a
	// store tier, a cell the fabric computes (a few hundred instructions)
	// and a sweep cell (mcf, the slowest kernel, takes about 250 ms for one
	// on a 2-vCPU Xeon).
	hitLimit       = 25 * time.Millisecond
	coldLimit      = 250 * time.Millisecond
	sweepCellLimit = time.Second
	// ffCalInsts is how far each kernel is fast-forwarded when the traced
	// run measures the emulator on its own.
	ffCalInsts = 500_000
)

// passStats is one pass's measurements.
type passStats struct {
	figure  int           // index into the sweep's figures
	traced  bool          // run with spans recorded
	runDur  time.Duration // wall time of the study RunContext
	runCPU  time.Duration // process CPU time over the study RunContext
	results []engine.JobResult
	memo    engine.MemoStats
	sample  engine.SampleStats
	digest  string
}

func runSweep(o options, sampled bool) (*outcome, error) {
	name, spec, insts := "sweep-exact", pipeline.SampleSpec{}, uint64(exactInsts)
	if sampled {
		name, spec, insts = "sweep-sampled", sampleSpec, uint64(sampledInsts)
	}
	ctx := context.Background()
	split := splitKernels(o.seed)
	// figs[f][k] are kernel k's cells of figure f. A pass runs one figure
	// over every kernel.
	figs := sweepFigures(split.Sweep, insts, spec)
	jobs := make([][]engine.Job, len(figs))
	for f, byKernel := range figs {
		for _, cells := range byKernel {
			jobs[f] = append(jobs[f], cells...)
		}
	}
	kernels := append(append([]string(nil), split.Sweep...), split.HeldOut...)

	// Set-up: build every kernel's program and a fresh engine (plus the
	// memory-only checkpoint store when sampling), several times, each from
	// a collected heap, timed in process CPU time.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := processCPU()
		for _, k := range kernels {
			workload.BuildByName(k)
		}
		engine.New(sweepWorkers())
		if sampled {
			if _, err := store.Open(store.Options{MemoryEntries: ckptEntries}); err != nil {
				return nil, err
			}
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}
	for _, k := range kernels {
		workload.Cached(k)
	}

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rec *recorder
	if o.traced {
		rec = &recorder{}
	}
	var (
		passes        []passStats
		host, hostEnd hostSample
		hostInsts     float64
	)
	// Pass 0 is a warm-up (heap growth, first-touch page faults): it is
	// checked like every pass but not measured. A run makes at least one
	// measured pass of every figure. A traced run runs each figure twice in
	// a row, untraced then traced, so the tracing overhead compares passes
	// close together in time.
	figureOf := func(i int) (int, bool) {
		if !o.traced {
			return i % len(figs), false
		}
		return (i / 2) % len(figs), i%2 == 1
	}
	measured := make([]int, len(figs))
	start := time.Now()
	for slices.Contains(measured, 0) || time.Since(start) < o.seconds {
		i := len(passes)
		f, tracedPass := figureOf(i)
		var prec *recorder
		if tracedPass {
			prec = rec
		}
		if i == 1 {
			host = sampleHost()
		}
		ps, err := sweepPass(ctx, prec, fmt.Sprintf("%s-%d-pass%d", name, o.seed, i), jobs[f], sampled)
		if err != nil {
			return nil, err
		}
		ps.figure, ps.traced = f, tracedPass
		if i >= 1 {
			hostInsts += detailedInsts(ps.results, spec)
			measured[f]++
		}
		passes = append(passes, ps)
		hostEnd = sampleHost()
		fmt.Fprintf(os.Stderr, "perfbench: pass %d (figure %d): sweep %.3fs wall, %.3fs CPU, %.0f insts/CPU-s, traced=%v\n",
			i, f, ps.runDur.Seconds(), ps.runCPU.Seconds(), passRate(ps), ps.traced)
	}

	// Output checks: every pass must reproduce the first pass of its
	// figure bit for bit, and a seeded subset of cells must match an
	// independent recomputation.
	first := make([]*passStats, len(figs))
	for i := range passes {
		ps := &passes[i]
		if first[ps.figure] == nil {
			first[ps.figure] = ps
		} else if ps.digest != first[ps.figure].digest {
			out.fail("pass %d digest %s differs from the figure's first pass digest %s",
				i, ps.digest, first[ps.figure].digest)
		}
	}
	d := newDigest()
	for _, ps := range first {
		d.h.Write([]byte(ps.digest))
	}
	out.digest = d.sum()
	type cellRef struct{ f, i int }
	var all []cellRef
	for f := range jobs {
		for i := range jobs[f] {
			all = append(all, cellRef{f, i})
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	for _, idx := range rng.Perm(len(all))[:recheckCells] {
		c := all[idx]
		if err := recheck(ctx, jobs[c.f][c.i], first[c.f].results[c.i].Result); err != nil {
			out.fail("recompute of figure %d cell %d: %v", c.f, c.i, err)
		}
	}

	figSecs := make([][]float64, len(figs)) // engine CPU time of each measured pass, per figure
	figBudget := make([]float64, len(figs))
	okCells, cells := 0, 0
	for _, ps := range passes[1:] {
		figSecs[ps.figure] = append(figSecs[ps.figure], ps.runCPU.Seconds())
		figBudget[ps.figure] = passBudget(ps)
		for _, r := range ps.results {
			cells++
			if r.Err != nil {
				out.failed++
				continue
			}
			if r.Memoized || r.Elapsed <= sweepCellLimit {
				okCells++ // a memoized cell is delivered with the computation it shared
			}
		}
	}
	out.attempted = cells
	e := out.e2e
	// The rate of one whole study: every figure's budget over the sum of
	// the figures' median pass CPU times, so the mix of figures a window
	// happened to end in does not move it.
	var budget, secs float64
	for f := range figs {
		budget += figBudget[f]
		secs += median(figSecs[f])
	}
	e["sim_insts_per_s"] = budget / secs
	e["setup_s"] = median(setups)
	e["slo_ok_ratio"] = ratio(float64(okCells), float64(cells))
	var err error
	if e["sample_ipc_err_pct"], err = heldOutIPCError(ctx, split.HeldOut); err != nil {
		return nil, fmt.Errorf("held-out error: %w", err)
	}
	if e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}

	if o.traced {
		l := out.layer
		hostMetrics(l, host, hostEnd, hostInsts)
		var results []engine.Result
		var memo engine.MemoStats
		var smp engine.SampleStats
		for _, ps := range first {
			for _, r := range ps.results {
				results = append(results, r.Result)
			}
			memo.Hits += ps.memo.Hits
			memo.Misses += ps.memo.Misses
			smp.CheckpointHits += ps.sample.CheckpointHits
			smp.CheckpointMisses += ps.sample.CheckpointMisses
			smp.FastForwards += ps.sample.FastForwards
		}
		modelMetrics(l, results)
		l["engine.memo_hit_ratio"] = ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses))
		l["engine.ckpt_hit_ratio"] = ratio(float64(smp.CheckpointHits),
			float64(smp.CheckpointHits+smp.CheckpointMisses))
		l["engine.fast_forwards"] = float64(smp.FastForwards)
		l["loadgen.inflight_max"] = 1 // one sweep at a time
		l["trace.overhead_pct"] = traceOverhead(passes[1:], len(figs))
		if err := sweepLayers(l, rec.snapshot(), passes, spec); err != nil {
			out.fail("%v", err)
		}
		if err := ffCalibration(l, rec, split.Sweep); err != nil {
			return nil, err
		}
		if err := writeSpans(o.spanPath(name), rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// passBudget is the instruction budget of a pass's cells.
func passBudget(ps passStats) float64 {
	var budget float64
	for _, r := range ps.results {
		budget += float64(r.Job.Insts)
	}
	return budget
}

// passRate is a pass's budget covered per CPU second of its engine call.
func passRate(ps passStats) float64 { return passBudget(ps) / ps.runCPU.Seconds() }

// traceOverhead is the median over figures of how much slower, in percent,
// the figure's traced passes ran than its untraced ones (medians of each);
// 0 when no figure ran both ways.
func traceOverhead(passes []passStats, figures int) float64 {
	plain := make([][]float64, figures)
	traced := make([][]float64, figures)
	for _, ps := range passes {
		if ps.traced {
			traced[ps.figure] = append(traced[ps.figure], passRate(ps))
		} else {
			plain[ps.figure] = append(plain[ps.figure], passRate(ps))
		}
	}
	var pct []float64
	for f := range plain {
		if len(plain[f]) > 0 && len(traced[f]) > 0 {
			p := median(plain[f])
			pct = append(pct, 100*(p-median(traced[f]))/p)
		}
	}
	return median(pct)
}

// sweepWorkers is the sweeps' engine worker count: one CPU is left to the
// Go runtime (GC, timers) and the host, which on a 2-vCPU machine cut the
// run-to-run spread of sim_insts_per_s from about 14% to about 6%.
func sweepWorkers() int { return max(1, nproc-1) }

// ckptEntries bounds the memory-only checkpoint store; large enough that a
// pass never evicts.
const ckptEntries = 1 << 16

// sweepPass runs one pass on a fresh engine. With rec non-nil it records
// the pass, its engine call, the engine's own job spans, and the
// checkpoint traffic.
func sweepPass(ctx context.Context, rec *recorder, id string, jobs []engine.Job, sampled bool) (passStats, error) {
	var ps passStats
	// Each timed phase starts from a collected heap, as testing.B does, so
	// whether a GC cycle lands inside it does not depend on the phase before.
	runtime.GC()
	passStart := time.Now()
	eng := engine.New(sweepWorkers())
	if sampled {
		st, err := store.Open(store.Options{MemoryEntries: ckptEntries})
		if err != nil {
			return ps, err
		}
		eng.SetCheckpointStore(&ckptStore{inner: engine.StoreCheckpoints(st), rec: rec, trace: id})
	}
	var tr *trace.Trace
	runCtx := ctx
	if rec != nil {
		tr = trace.New(id, "sweep")
		runCtx = trace.NewContext(ctx, tr)
	}
	t0, c0 := time.Now(), processCPU()
	rs, err := eng.RunContext(runCtx, jobs, nil)
	t1, c1 := time.Now(), processCPU()
	if err != nil {
		return ps, err
	}
	ps.runDur, ps.runCPU = t1.Sub(t0), c1-c0
	ps.results = rs
	ps.memo = eng.Memo()
	ps.sample = eng.Sample()
	d := newDigest()
	for i := range rs {
		r := &rs[i]
		d.add(r.Job.Bench, r.Job.Config.Name, r.Job.Insts, &r.Result.Stats)
	}
	ps.digest = d.sum()

	if rec != nil {
		pass := rec.add(span{Parent: -1, Trace: id, Name: "pass", Layer: "loadgen", Start: passStart, End: time.Now()})
		run := rec.add(span{Parent: pass, Trace: id, Name: "engine.RunContext", Layer: "engine", Start: t0, End: t1})
		tj := tr.JSON()
		for _, s := range tj.Spans {
			if s.Name != "engine_job" || s.Attrs["memo"] == "waiter" {
				continue // a parked duplicate holds no worker
			}
			layer := "engine"
			if s.Attrs["memo"] == "miss" {
				layer = "pipeline"
			}
			st := tj.Start.Add(time.Duration(s.StartUS) * time.Microsecond)
			rec.add(span{Parent: run, Trace: id, Name: "engine_job", Layer: layer,
				Start: st, End: st.Add(time.Duration(s.DurUS) * time.Microsecond), Attrs: s.Attrs})
		}
	}
	return ps, nil
}

// ckptStore is the benchmark's engine.CheckpointStore: it passes every
// call to the memory-only store.Store and, in traced passes, records a span
// around each. The engine fast-forwards between a missed get and the put
// of the same key, so that gap is recorded as the emu span.
type ckptStore struct {
	inner engine.CheckpointStore
	rec   *recorder
	trace string

	mu     sync.Mutex
	missed map[string][]time.Time // end of each unanswered missed get, per key
}

func (c *ckptStore) GetCheckpoint(key string) ([]byte, bool) {
	if c.rec == nil {
		return c.inner.GetCheckpoint(key)
	}
	t0 := time.Now()
	val, ok := c.inner.GetCheckpoint(key)
	t1 := time.Now()
	c.rec.add(span{Parent: -1, Trace: c.trace, Name: "ckpt_get", Layer: "store", Start: t0, End: t1})
	if !ok {
		c.mu.Lock()
		if c.missed == nil {
			c.missed = make(map[string][]time.Time)
		}
		c.missed[key] = append(c.missed[key], t1)
		c.mu.Unlock()
	}
	return val, ok
}

func (c *ckptStore) PutCheckpoint(key string, val []byte) {
	if c.rec == nil {
		c.inner.PutCheckpoint(key, val)
		return
	}
	t0 := time.Now()
	c.inner.PutCheckpoint(key, val)
	t1 := time.Now()
	c.rec.add(span{Parent: -1, Trace: c.trace, Name: "ckpt_put", Layer: "store", Start: t0, End: t1})
	c.mu.Lock()
	if ts := c.missed[key]; len(ts) > 0 {
		c.missed[key] = ts[1:]
		c.rec.add(span{Parent: -1, Trace: c.trace, Name: "fast_forward", Layer: "emu", Start: ts[0], End: t0})
	}
	c.mu.Unlock()
}

// recheck recomputes one cell outside the engine that produced it and
// compares the two encodings byte for byte: an exact cell through the leaf
// engine.Run, a sampled cell on a fresh engine with no checkpoint store
// (every fast-forward emulated rather than restored).
func recheck(ctx context.Context, j engine.Job, got engine.Result) error {
	var want engine.Result
	if j.Sample.Enabled() {
		rs, err := engine.New(1).RunContext(ctx, []engine.Job{j}, nil)
		if err != nil {
			return err
		}
		want = rs[0].Result
	} else {
		var err error
		if want, err = engine.Run(j.Config, j.Bench, j.Insts); err != nil {
			return err
		}
	}
	a, err := api.MarshalResult(got)
	if err != nil {
		return err
	}
	b, err := api.MarshalResult(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s on %s: sweep result differs from recomputation", j.Bench, j.Config.Name)
	}
	return nil
}

// detailedInsts is how many instructions the pipeline simulated in detail
// for the computed (not memoized) cells of a pass.
func detailedInsts(rs []engine.JobResult, spec pipeline.SampleSpec) float64 {
	var n float64
	for _, r := range rs {
		if r.Memoized {
			continue
		}
		n += float64(windowInsts(r.Job.Insts, spec))
	}
	return n
}

// windowInsts is the detailed-window instruction count of one cell: the
// whole budget when exact, the windows' warm-up and measured commits when
// sampled (mirroring the engine's window walk).
func windowInsts(total uint64, spec pipeline.SampleSpec) uint64 {
	if !spec.Enabled() {
		return total
	}
	var n uint64
	for skip := uint64(0); skip < total; skip += spec.Period {
		w := spec.Warmup + spec.Detail
		if rem := total - skip; w > rem {
			w = rem
		}
		n += w
		if skip+spec.Period >= total {
			break
		}
	}
	return n
}

// sweepLayers fills the per-layer shares of a sweep from the traced passes.
// Time is counted in worker-seconds: each pass offers its duration times
// the engine's workers, split into
//
//	pipeline = executed jobs − the checkpoint and fast-forward spans in them
//	store    = checkpoint get/put spans
//	emu      = fast-forward legs (missed get → put of the same key)
//	engine   = the engine calls' worker capacity not spent in jobs
//	loadgen  = the benchmark's own time between engine calls
//
// The shares must sum to one; a child outgrowing its parent shows up as
// closure error.
func sweepLayers(l map[string]float64, spans []span, passes []passStats, spec pipeline.SampleSpec) error {
	w := time.Duration(sweepWorkers())
	var capacity, runs, jobs, missJobs, st, em time.Duration
	var getUS, putUS []float64
	for _, s := range spans {
		switch s.Name {
		case "pass":
			capacity += s.dur() * w
		case "engine.RunContext":
			runs += s.dur() * w
		case "engine_job":
			jobs += s.dur()
			if s.Layer == "pipeline" {
				missJobs += s.dur()
			}
		case "ckpt_get":
			st += s.dur()
			getUS = append(getUS, float64(s.dur())/1e3)
		case "ckpt_put":
			st += s.dur()
			putUS = append(putUS, float64(s.dur())/1e3)
		case "fast_forward":
			em += s.dur()
		}
	}
	if capacity == 0 {
		return fmt.Errorf("traced run recorded no pass")
	}
	pipe := missJobs - st - em
	eng := runs - jobs
	load := capacity - runs
	shares := map[string]time.Duration{
		"pipeline.share": pipe, "store.share": st, "emu.ff_share": em,
		"engine.overhead_share": eng, "loadgen.share": load,
	}
	var sum time.Duration
	for k, v := range shares {
		l[k] = float64(v) / float64(capacity)
		sum += v
		if v < 0 {
			return fmt.Errorf("closure: %s self time is negative (%v)", k, v)
		}
	}
	l["trace.closure_err_pct"] = 100 * float64(sum-capacity) / float64(capacity)
	l["store.ckpt_get_us_p50"] = layerPercentile(getUS, 50)
	l["store.ckpt_put_us_p50"] = layerPercentile(putUS, 50)

	var inst, cycles float64
	for _, ps := range passes {
		if !ps.traced {
			continue
		}
		for _, r := range ps.results {
			if r.Memoized {
				continue
			}
			n := float64(windowInsts(r.Job.Insts, spec))
			inst += n
			cycles += n * ratio(float64(r.Result.Stats.Cycles), float64(r.Result.Stats.Committed))
		}
	}
	l["pipeline.ns_per_inst"] = ratio(float64(pipe), inst)
	l["pipeline.ns_per_cycle"] = ratio(float64(pipe), cycles)
	if e := l["trace.closure_err_pct"]; e > closureTolerancePct || e < -closureTolerancePct {
		return fmt.Errorf("closure: layer self times miss the accounted time by %.2f%%", e)
	}
	return nil
}

// ffCalibration measures the emulator on its own: each kernel is
// fast-forwarded ffCalInsts instructions through emu.(*Emulator).FastForward
// under a span.
func ffCalibration(l map[string]float64, rec *recorder, kernels []string) error {
	var insts uint64
	var dur time.Duration
	for _, k := range kernels {
		p := workload.Cached(k)
		m := emu.New(p.NewImage(), p.Entry)
		m.SetDecodeTable(p.Base, p.Decoded())
		t0 := time.Now()
		n, err := m.FastForward(ffCalInsts)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("fast-forward %s: %w", k, err)
		}
		rec.add(span{Parent: -1, Trace: "ff-calibration", Name: "emu.FastForward", Layer: "emu", Start: t0, End: t1})
		insts += n
		dur += t1.Sub(t0)
	}
	l["emu.ff_insts_per_s"] = ratio(float64(insts), dur.Seconds())
	return nil
}
