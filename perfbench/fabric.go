package main

// fabric-mix: open-loop traffic against an in-process svwctl coordinator
// fronting two svwd backends, each daemon served on its own loopback
// listener behind the benchmark's timing middleware. Each backend has its
// own disk store with write-behind, learns the fabric from the
// coordinator's headers, keeps a small memory tier and runs one engine
// worker. Cells come in four classes (inputs.go); responses are classified
// by the X-Svwd-Cache origin they report.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"svwsim/internal/api"
	"svwsim/internal/cluster"
	"svwsim/internal/rendezvous"
	"svwsim/internal/server"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

const (
	// fabricRate is the open-loop rate in requests per second. At 250/s on
	// a 2-vCPU machine, hits often waited for a CPU behind two cold cells
	// computing at once, and the p90 hit latency moved by 70% between runs.
	fabricRate    = 150.0
	backendMemory = 16 // memory-tier entries per backend
	writeBehind   = 64 // write-behind queue entries per backend
	fabricSetups  = 9  // set-ups per run; setup_s is their median
	// traceRing holds every trace of a run, so the traced run can join all
	// of its requests with the daemons' spans.
	traceRing = 1 << 14
	// containSlack absorbs the daemons' microsecond rounding when a span is
	// matched to the interval that encloses it.
	containSlack = 5 * time.Microsecond
)

// daemon is one in-process HTTP server on a loopback listener.
type daemon struct {
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

type fabric struct {
	dir      string
	urls     []string // backend base URLs, index = backend number
	backends []*server.Server
	coordURL string
	coordCli *http.Client
	daemons  []*daemon
	// rec is non-nil while the traced half of a traced run is in progress;
	// the middleware records a span per request that carries a trace ID.
	rec atomic.Pointer[recorder]
}

func startFabric(dir string) (f *fabric, err error) {
	f = &fabric{dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close() // listeners not yet handed to a server
		}
	}()
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		lns = append(lns, ln)
	}
	for _, ln := range lns[:2] {
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := range f.urls {
		s, err := server.New(server.Options{
			Workers:          1,
			CacheEntries:     backendMemory,
			StoreDir:         filepath.Join(dir, fmt.Sprintf("backend%d", i)),
			StoreWriteBehind: writeBehind,
			PeerLearn:        true,
			TraceBufferSize:  traceRing,
		})
		if err != nil {
			return f, err
		}
		f.backends = append(f.backends, s)
		f.serve(lns[0], f.timed(fmt.Sprintf("svwd%d", i), "server", s.Handler()))
		lns = lns[1:]
	}
	f.coordCli = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cluster.DefaultBackendConcurrency}}
	c, err := cluster.New(cluster.Options{Backends: f.urls, Client: f.coordCli, TraceBufferSize: traceRing})
	if err != nil {
		return f, err
	}
	f.coordURL = "http://" + lns[0].Addr().String()
	f.serve(lns[0], f.timed("svwctl", "cluster", c.Handler()))
	lns = nil
	return f, nil
}

func (f *fabric) serve(ln net.Listener, h http.Handler) {
	d := &daemon{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	f.daemons = append(f.daemons, d)
}

// timed is the benchmark's timing middleware around a daemon's handler.
func (f *fabric) timed(name, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := f.rec.Load()
		id := r.Header.Get(api.TraceHeader)
		if rec == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(span{Parent: -1, Trace: id, Name: name, Layer: layer, Start: t0, End: time.Now()})
	})
}

// close stops every daemon, drains the backends' write-behind queues and
// removes the fabric's directory.
func (f *fabric) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, d := range f.daemons {
		keep(d.srv.Shutdown(ctx))
		<-d.done
	}
	for _, s := range f.backends {
		keep(s.Close())
	}
	if f.coordCli != nil {
		f.coordCli.CloseIdleConnections()
	}
	keep(os.RemoveAll(f.dir))
	return first
}

// newClient returns the load generator's client: at most nproc
// connections per host, never proxied.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
	}}
}

// reply is one response as the client saw it.
type reply struct {
	status int
	origin string // X-Svwd-Cache
	body   []byte
}

func post(ctx context.Context, cli *http.Client, url, traceID string, v any) (reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(api.TraceHeader, traceID)
	}
	resp, err := cli.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, origin: resp.Header.Get(api.CacheHeader), body: body}, nil
}

func runRequest(c cell) api.RunRequest {
	return api.RunRequest{Config: c.Config, Bench: c.Bench, Insts: c.Insts}
}

// populate computes cells through the coordinator, nproc at a time, and
// returns their bodies.
func populate(ctx context.Context, f *fabric, cli *http.Client, cells []cell) (map[cell][]byte, error) {
	out := make(map[cell][]byte, len(cells))
	var mu sync.Mutex
	var firstErr error
	next := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				rp, err := post(ctx, cli, f.coordURL+"/v1/run", "", runRequest(c))
				if err == nil && rp.status != http.StatusOK {
					err = fmt.Errorf("populate %s: HTTP %d: %s", c, rp.status, rp.body)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[c] = rp.body
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// sent is one scheduled request's outcome.
type sent struct {
	req       fabricRequest
	traceID   string
	traced    bool
	due, woke time.Time // when it was due, when the generator got to it
	start     time.Time // when a slot let it go
	done      time.Time
	rp        reply
	err       error
}

func (s *sent) latency() time.Duration { return s.done.Sub(s.due) }
func (s *sent) ok() bool               { return s.err == nil && s.rp.status == http.StatusOK }

// loadgen sends the schedule open loop: each request leaves at its due time
// unless nproc requests are already in flight, in which case it waits for
// a slot and its latency, counted from the due time, includes the wait.
// From index tracedFrom on (if >= 0) requests are traced.
func loadgen(ctx context.Context, f *fabric, cli *http.Client, rec *recorder, seed int64,
	sched []fabricRequest, tracedFrom int) ([]*sent, int) {
	out := make([]*sent, len(sched))
	slots := make(chan struct{}, nproc)
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		// The dispatcher sleeps on its own OS thread (sleepUntil) at raised
		// priority. The thread is never unlocked, so it ends with this
		// goroutine and its priority is never lent to other goroutines.
		runtime.LockOSThread()
		if err := raisePriority(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: load generator runs at normal priority: %v\n", err)
		}
		start := time.Now()
		for i, r := range sched {
			s := &sent{req: r, traceID: fmt.Sprintf("pb-%d-%d", seed, i), due: start.Add(r.Due)}
			out[i] = s
			if i == tracedFrom {
				f.rec.Store(rec)
			}
			s.traced = tracedFrom >= 0 && i >= tracedFrom
			sleepUntil(s.due)
			s.woke = time.Now()
			slots <- struct{}{}
			s.start = time.Now()
			if n := inflight.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				defer inflight.Add(-1)
				send(ctx, f, cli, rec, s)
			}()
		}
	}()
	<-dispatched
	wg.Wait()
	f.rec.Store(nil)
	return out, int(peak.Load())
}

// sleepUntil blocks the calling OS thread in the kernel until t. The load
// generator sleeps this way, on a locked thread, rather than on the Go
// runtime's timers, which on a 2-vCPU VM woke up to several milliseconds
// late at p99 (against 0.4 ms for nanosleep) and so added generator
// lateness to every latency measured from the due time.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // interrupted: sleep again for what is left
	}
}

// raisePriority moves the calling OS thread to the real-time SCHED_FIFO
// class at its lowest priority, or failing that to nice -20. A dispatcher at
// normal priority woke up to 7 ms late at p99 on a 2-vCPU VM while the
// daemons' threads held both CPUs; at raised priority it preempts them for
// the few microseconds each request takes to dispatch.
func raisePriority() error {
	tid := syscall.Gettid()
	param := struct{ priority int32 }{1}
	const schedFIFO = 1
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedFIFO,
		uintptr(unsafe.Pointer(&param)))
	if errno == 0 {
		return nil
	}
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, -20); err != nil {
		return fmt.Errorf("sched_setscheduler: %v; setpriority: %v", errno, err)
	}
	return nil
}

func send(ctx context.Context, f *fabric, cli *http.Client, rec *recorder, s *sent) {
	var req any
	url := f.coordURL + "/v1/run"
	c := s.req.Cells[0]
	switch s.req.Class {
	case classSweep:
		url = f.coordURL + "/v1/sweep"
		req = api.SweepRequest{Configs: []string{c.Config},
			Benches: []string{c.Bench, s.req.Cells[1].Bench}, Insts: c.Insts}
	case classPeer:
		// Straight to the backend that does not own the cell's store key,
		// so it has to read the entry from the owner.
		target := f.urls[0]
		if rendezvous.Owner(f.urls, c.key()) == target {
			target = f.urls[1]
		}
		url = target + "/v1/run"
		req = runRequest(c)
	default:
		req = runRequest(c)
	}
	c0 := time.Now()
	s.rp, s.err = post(ctx, cli, url, s.traceID, req)
	s.done = time.Now()
	if s.traced {
		id := rec.add(span{Parent: -1, Trace: s.traceID, Name: "request", Layer: "loadgen",
			Start: s.start, End: s.done, Attrs: map[string]string{"class": s.req.Class}})
		rec.add(span{Parent: id, Trace: s.traceID, Name: "http.Client.Do", Layer: "http", Start: c0, End: s.done})
	}
}

func runFabric(o options) (*outcome, error) {
	// The daemons run in this process but stand for separate processes,
	// each with its own scheduler: give the Go runtime a P per daemon and
	// one for the load generator, so a CPU-bound engine worker cannot hold
	// the generator off the CPU until the runtime preempts it.
	runtime.GOMAXPROCS(4 * nproc)
	ctx := context.Background()
	n := int(fabricRate * o.seconds.Seconds())
	in := fabricPlan(o.seed, fabricRate, n)
	cli := newClient()
	defer cli.CloseIdleConnections()

	// Set-up: start the fabric and pre-populate the warm set, then the hot
	// set (last, so it is what the memory tiers hold), several times.
	var setups []float64
	var f *fabric
	var refs map[cell][]byte
	for i := 0; i < fabricSetups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(".bench_build", "fabric-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := processCPU()
		if f, err = startFabric(dir); err != nil {
			return nil, err
		}
		if refs, err = populate(ctx, f, cli, append(append([]cell(nil), in.Warm...), in.Hot...)); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}
	defer f.close()

	var rec *recorder
	tracedFrom := -1
	if o.traced {
		rec = &recorder{}
		tracedFrom = n / 2
	}
	runtime.GC() // start the window from a collected heap, as testing.B does
	host, cpu0 := sampleHost(), processCPU()
	results, peak := loadgen(ctx, f, cli, rec, o.seed, in.Schedule, tracedFrom)
	hostEnd, windowCPU := sampleHost(), processCPU()-cpu0

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, attempted: len(results)}
	// Output checks: every response for a cell is byte-identical to the
	// first one seen (the set-up's for hot and warm cells), whichever tier
	// or backend served it.
	var hitMs, coldMs []float64 // untraced requests only
	var served float64          // instruction budget of every cell served
	okSLO := 0
	origins := map[string]int{}
	for _, s := range results {
		if !s.ok() {
			out.failed++
			continue
		}
		var want []byte
		for _, c := range s.req.Cells {
			ref, seen := refs[c]
			if !seen {
				refs[c] = s.rp.body
				ref = s.rp.body
			}
			want = append(want, ref...)
		}
		if !bytes.Equal(s.rp.body, want) {
			out.fail("request %s (%s %v): body differs from the cell's first response", s.traceID, s.req.Class, s.req.Cells)
		}
		for _, c := range s.req.Cells {
			served += float64(c.Insts)
		}
		ms := float64(s.latency()) / 1e6
		limit := coldLimit
		if s.req.Class != classSweep {
			origins[s.rp.origin]++
			switch s.rp.origin {
			case api.CacheMemory, api.CacheDisk, api.CachePeer:
				if !s.traced {
					hitMs = append(hitMs, ms)
				}
				limit = hitLimit
			case api.CacheMiss:
				if !s.traced {
					coldMs = append(coldMs, ms)
				}
			default:
				out.fail("request %s: unknown %s %q", s.traceID, api.CacheHeader, s.rp.origin)
			}
		}
		if s.latency() <= limit {
			okSLO++
		}
	}
	// A seeded subset of cells is recomputed through the leaf engine and
	// the API encoding.
	var cells []cell
	for c := range refs {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].String() < cells[j].String() })
	d := newDigest()
	for _, c := range cells {
		d.addBytes(refs[c])
	}
	out.digest = d.sum()
	rng := rand.New(rand.NewSource(o.seed))
	for _, i := range rng.Perm(len(cells))[:recheckCells] {
		c := cells[i]
		cfg, _ := sim.ConfigByName(c.Config)
		res, err := engine.Run(cfg, c.Bench, c.Insts)
		if err != nil {
			return nil, err
		}
		b, err := api.MarshalResult(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, refs[c]) {
			out.fail("cell %s: fabric response differs from engine.Run + api encoding", c)
		}
	}

	e := out.e2e
	// The schedule fixes how many instructions a run serves and when, so
	// the rate is taken over the CPU time the whole process (generator,
	// coordinator and backends) spent serving them: a faster hit path or
	// cycle loop serves the same schedule on less CPU.
	e["sim_insts_per_s"] = ratio(served, windowCPU.Seconds())
	e["setup_s"] = median(setups)
	e["slo_ok_ratio"] = ratio(float64(okSLO), float64(len(results)))
	var err error
	if e["sample_ipc_err_pct"], err = heldOutIPCError(ctx, splitKernels(o.seed).HeldOut); err != nil {
		return nil, fmt.Errorf("held-out error: %w", err)
	}
	if e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !o.traced {
		return out, nil
	}

	l := out.layer
	// Latencies as the generator saw them, timed from the due time, over
	// the untraced half. Segments are consecutive runs of requests in
	// schedule order, each just long enough for the class's highest
	// percentile; cold segments hold whole rounds through the kernels, so
	// each has the same mix.
	latencyMetrics(l, chunks(hitMs, 90, 1), chunks(coldMs, 90, len(workload.Names())))
	var computed float64
	runs := 0
	for _, s := range results {
		if s.req.Class != classSweep {
			runs++
		}
		if s.ok() && s.rp.origin == api.CacheMiss {
			computed += float64(s.req.Cells[0].Insts)
		}
	}
	hostMetrics(l, host, hostEnd, computed)
	for origin, metric := range map[string]string{
		api.CacheMemory: "store.origin_memory_share", api.CacheDisk: "store.origin_disk_share",
		api.CachePeer: "store.origin_peer_share", api.CacheMiss: "store.origin_computed_share",
	} {
		l[metric] = ratio(float64(origins[origin]), float64(runs))
	}
	// The generator's own lateness, and apart from it the wait for a free
	// slot, which is the system holding nproc requests at once; medians of
	// per-segment p99s, like the end-to-end latencies.
	var late, wait []float64
	for _, s := range results {
		late = append(late, float64(s.woke.Sub(s.due))/1e6)
		wait = append(wait, float64(s.start.Sub(s.woke))/1e6)
	}
	l["loadgen.late_p99_ms"], _ = segmentPercentile(chunks(late, 99, 1), 99)
	l["loadgen.slot_wait_p99_ms"], _ = segmentPercentile(chunks(wait, 99, 1), 99)
	l["loadgen.inflight_max"] = float64(peak)
	var bodyBytes, bodyCells float64
	for _, s := range results {
		if s.ok() {
			bodyBytes += float64(len(s.rp.body))
			bodyCells += float64(len(s.req.Cells))
		}
	}
	l["api.bytes_per_cell"] = ratio(bodyBytes, bodyCells)
	var decoded []engine.Result
	for _, c := range cells {
		var r engine.Result
		if err := json.Unmarshal(refs[c], &r); err != nil {
			return nil, fmt.Errorf("decode %s: %w", c, err)
		}
		decoded = append(decoded, r)
	}
	modelMetrics(l, decoded)
	var plainMs, tracedMs []float64
	for _, s := range results {
		if s.ok() && s.req.Class != classSweep {
			if s.traced {
				tracedMs = append(tracedMs, float64(s.latency())/1e6)
			} else {
				plainMs = append(plainMs, float64(s.latency())/1e6)
			}
		}
	}
	l["trace.overhead_pct"] = 100 * (median(tracedMs) - median(plainMs)) / median(plainMs)

	var stats api.StatsResponse
	if err := getJSON(ctx, cli, f.coordURL+"/v1/stats", &stats); err != nil {
		return nil, err
	}
	l["store.coalesced"] = float64(stats.Cache.Coalesced)
	l["store.wb_drops"] = float64(stats.Cache.WritebehindDrops)
	l["engine.memo_hit_ratio"] = ratio(float64(stats.Engine.MemoHits), float64(stats.Engine.MemoHits+stats.Engine.MemoMisses))
	l["engine.ckpt_hit_ratio"] = ratio(float64(stats.Engine.CheckpointHits),
		float64(stats.Engine.CheckpointHits+stats.Engine.CheckpointMisses))
	l["engine.fast_forwards"] = float64(stats.Engine.FastForwards)
	if stats.Cluster != nil {
		l["cluster.retries"] = float64(stats.Cluster.Retries)
		l["cluster.hedges"] = float64(stats.Cluster.Hedges)
	}

	if err := ffCalibration(l, rec, splitKernels(o.seed).Sweep); err != nil {
		return nil, err
	}
	// Joined daemon spans take IDs above every span recorded so far.
	spans, err := joinFabricSpans(ctx, f, cli, rec.snapshot(), results)
	if err != nil {
		return nil, err
	}
	if err := fabricLayers(l, spans, results); err != nil {
		out.fail("%v", err)
	}
	// The joined trees, plus the spans that joined none: the emulator
	// calibration and middleware spans of requests that straddled the start
	// of the traced half.
	joined := make(map[int]bool, len(spans))
	for _, sp := range spans {
		joined[sp.ID] = true
	}
	for _, sp := range rec.snapshot() {
		if !joined[sp.ID] {
			spans = append(spans, sp)
		}
	}
	if err := writeSpans(o.spanPath("fabric-mix"), spans); err != nil {
		return nil, err
	}
	return out, nil
}

func getJSON(ctx context.Context, cli *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := cli.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonLayer maps a daemon span name to the module that records it.
func daemonLayer(s api.SpanJSON, own string) string {
	switch s.Name {
	case "dispatch", "attempt", "merge", "store_fallback":
		return "cluster"
	case "store_probe", "store_peer":
		return "store"
	case "gate_wait":
		return "server"
	case "engine_run":
		return "engine"
	case "engine_job":
		if s.Attrs["memo"] == "miss" {
			return "pipeline"
		}
		return "engine"
	case "encode":
		return "api"
	}
	return own
}

// joinFabricSpans builds one span tree per traced request: the benchmark's
// request and client spans, the middleware spans of every daemon the
// request reached, and the spans each daemon recorded for it on
// GET /debug/traces, joined by trace ID and nested by interval.
func joinFabricSpans(ctx context.Context, f *fabric, cli *http.Client, own []span, results []*sent) ([]span, error) {
	traced := map[string]*sent{}
	for _, s := range results {
		if s.traced {
			traced[s.traceID] = s
		}
	}
	var out []span
	client := map[string]int{}          // trace → client span ID
	mw := map[string]map[string][]int{} // trace → daemon name → middleware span IDs
	byID := map[int]*span{}
	for _, s := range own {
		if traced[s.Trace] == nil {
			continue
		}
		out = append(out, s)
		switch {
		case s.Name == "http.Client.Do":
			client[s.Trace] = s.ID
		case s.Layer == "server" || s.Layer == "cluster":
			if mw[s.Trace] == nil {
				mw[s.Trace] = map[string][]int{}
			}
			mw[s.Trace][s.Name] = append(mw[s.Trace][s.Name], s.ID)
		}
	}
	for i := range out {
		byID[out[i].ID] = &out[i]
	}
	nextID := 0
	for _, s := range own {
		if s.ID >= nextID {
			nextID = s.ID + 1
		}
	}

	daemons := []struct{ name, url string }{{"svwctl", f.coordURL}}
	for i, u := range f.urls {
		daemons = append(daemons, struct{ name, url string }{fmt.Sprintf("svwd%d", i), u})
	}
	var joined []span
	for _, dm := range daemons {
		var tr api.TracesResponse
		if err := getJSON(ctx, cli, dm.url+"/debug/traces", &tr); err != nil {
			return nil, err
		}
		layer := "cluster"
		if strings.HasPrefix(dm.name, "svwd") {
			layer = "server"
		}
		for _, tj := range tr.Traces {
			if traced[tj.TraceID] == nil {
				continue
			}
			// The middleware span this trace ran inside.
			parent := -1
			for _, id := range mw[tj.TraceID][dm.name] {
				m := byID[id]
				if !m.Start.After(tj.Start.Add(containSlack)) && !m.End.Before(tj.Start) &&
					(parent < 0 || m.Start.After(byID[parent].Start)) {
					parent = id
				}
			}
			if parent < 0 {
				continue
			}
			base := nextID
			spans := make([]span, len(tj.Spans))
			for i, sj := range tj.Spans {
				st := tj.Start.Add(time.Duration(sj.StartUS) * time.Microsecond)
				spans[i] = span{ID: base + i, Parent: -1, Trace: tj.TraceID, Name: sj.Name,
					Layer: daemonLayer(sj, layer), Start: st,
					End: st.Add(time.Duration(sj.DurUS) * time.Microsecond), Attrs: sj.Attrs}
			}
			for i, sj := range tj.Spans {
				switch {
				case sj.Parent >= 0:
					spans[i].Parent = base + sj.Parent
				default:
					// Top-level spans nest inside the innermost span of the
					// same trace that encloses them (engine jobs inside
					// engine_run), else inside the middleware span.
					if k := enclosingSlack(spans[i], spans); k >= 0 {
						spans[i].Parent = spans[k].ID
					} else {
						spans[i].Parent = parent
					}
				}
			}
			nextID += len(spans)
			joined = append(joined, spans...)
		}
	}
	// Backend middleware spans nest in the coordinator attempt that sent
	// them, or in the client span for requests sent straight to a backend.
	for i := range out {
		s := &out[i]
		switch s.Layer {
		case "cluster":
			s.Parent = client[s.Trace]
		case "server":
			s.Parent = client[s.Trace]
			var attempts []span
			for _, j := range joined {
				if j.Trace == s.Trace && j.Name == "attempt" && j.Attrs["backend"] == f.urls[backendIndex(s.Name)] {
					attempts = append(attempts, j)
				}
			}
			if k := enclosingSlack(*s, attempts); k >= 0 {
				s.Parent = attempts[k].ID
			} else if ids := mw[s.Trace]["svwctl"]; len(ids) > 0 {
				s.Parent = ids[0]
			}
		}
	}
	return append(out, joined...), nil
}

func backendIndex(name string) int {
	var i int
	fmt.Sscanf(name, "svwd%d", &i)
	return i
}

// enclosingSlack is enclosing with the daemons' rounding allowed for.
func enclosingSlack(s span, cands []span) int {
	t := s
	t.Start = t.Start.Add(containSlack)
	t.End = t.End.Add(-containSlack)
	if t.End.Before(t.Start) {
		t.End = t.Start
	}
	return enclosing(t, cands)
}

// fabricLayers fills the per-layer metrics of fabric-mix from the joined
// span trees. Shares are of the time requests held a slot; closure
// compares the summed layer self times against that time.
func fabricLayers(l map[string]float64, spans []span, results []*sent) error {
	self := selfTimes(spans)
	layers := map[string]time.Duration{}
	var busy time.Duration
	var serverSelf, clusterSelf, clientSelf, mem, disk, peer, probe, gate, encode, dispatch, merge []float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	class := map[string]string{}
	for _, s := range results {
		class[s.traceID] = s.req.Class
	}
	var pipeNs time.Duration
	for _, s := range spans {
		layers[s.Layer] += self[s.ID]
		switch s.Name {
		case "request":
			busy += s.dur()
		case "http.Client.Do":
			clientSelf = append(clientSelf, ms(self[s.ID]))
		case "svwctl":
			clusterSelf = append(clusterSelf, ms(self[s.ID]))
		case "svwd0", "svwd1":
			serverSelf = append(serverSelf, ms(self[s.ID]))
		case "store_probe":
			probe = append(probe, ms(s.dur()))
			if class[s.Trace] != classSweep {
				switch s.Attrs["tier"] {
				case "memory":
					mem = append(mem, ms(s.dur()))
				case "disk":
					disk = append(disk, ms(s.dur()))
				}
			}
		case "store_peer":
			if s.Attrs["outcome"] == "hit" {
				peer = append(peer, ms(s.dur()))
			}
		case "gate_wait":
			gate = append(gate, ms(s.dur()))
		case "encode":
			encode = append(encode, ms(s.dur()))
		case "dispatch":
			dispatch = append(dispatch, ms(s.dur()))
		case "merge":
			merge = append(merge, ms(s.dur()))
		}
		if s.Layer == "pipeline" {
			pipeNs += self[s.ID]
		}
	}
	if busy == 0 {
		return fmt.Errorf("traced run recorded no request")
	}
	var sum time.Duration
	for layer, d := range layers {
		if d < 0 {
			return fmt.Errorf("closure: %s self time is negative (%v)", layer, d)
		}
		sum += d
	}
	share := func(layer string) float64 { return float64(layers[layer]) / float64(busy) }
	l["pipeline.share"] = share("pipeline")
	l["engine.overhead_share"] = share("engine")
	l["store.share"] = share("store")
	l["server.share"] = share("server")
	l["cluster.share"] = share("cluster")
	l["api.share"] = share("api")
	l["http.share"] = share("http")
	l["loadgen.share"] = share("loadgen")
	l["trace.closure_err_pct"] = 100 * float64(sum-busy) / float64(busy)
	l["server.self_ms_p50"] = layerPercentile(serverSelf, 50)
	l["server.gate_wait_ms_p90"] = layerPercentile(gate, 90)
	l["server.store_probe_ms_p50"] = layerPercentile(probe, 50)
	l["server.encode_ms_p50"] = layerPercentile(encode, 50)
	l["cluster.self_ms_p50"] = layerPercentile(clusterSelf, 50)
	l["cluster.dispatch_ms_p50"] = layerPercentile(dispatch, 50)
	l["cluster.merge_ms_p50"] = layerPercentile(merge, 50)
	l["http.client_ms_p50"] = layerPercentile(clientSelf, 50)
	l["store.mem_ms_p50"] = layerPercentile(mem, 50)
	l["store.disk_ms_p50"] = layerPercentile(disk, 50)
	l["store.peer_ms_p50"] = layerPercentile(peer, 50)

	// Detailed instructions behind the pipeline time: the traced requests
	// that computed, weighted by their CPI for the per-cycle figure.
	var inst, cycles float64
	for _, s := range results {
		if !s.traced || !s.ok() || s.req.Class == classSweep || s.rp.origin != api.CacheMiss {
			continue
		}
		var r engine.Result
		if err := json.Unmarshal(s.rp.body, &r); err != nil {
			return fmt.Errorf("decode %s: %w", s.traceID, err)
		}
		n := float64(s.req.Cells[0].Insts)
		inst += n
		cycles += n * ratio(float64(r.Stats.Cycles), float64(r.Stats.Committed))
	}
	l["pipeline.ns_per_inst"] = ratio(float64(pipeNs), inst)
	l["pipeline.ns_per_cycle"] = ratio(float64(pipeNs), cycles)
	if e := l["trace.closure_err_pct"]; e > closureTolerancePct || e < -closureTolerancePct {
		return fmt.Errorf("closure: layer self times miss the request time by %.2f%%", e)
	}
	return nil
}
