package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort a copy
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 50}, // rank ceil(50) = 50
		{90, 90}, // rank 90 leaves exactly ten beyond it
		{0.5, 1}, // rank rounds up to 1
		{12.3, 13},
	} {
		got, err := percentile(xs, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	// Ten-beyond rule: p91 of 100 leaves nine samples above it.
	if _, err := percentile(xs, 91); err == nil {
		t.Errorf("p91 of 100 samples accepted with nine beyond it")
	}
	// p99 needs 1000 samples: rank 990 of 1000 leaves ten, of 999 leaves nine.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got, err := percentile(big, 99); err != nil || got != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(big[:999], 99); err == nil {
		t.Errorf("p99 of 999 samples accepted")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Errorf("p50 of no samples accepted")
	}
	if got := layerPercentile(big[:999], 99); got != 0 {
		t.Errorf("layerPercentile without enough samples = %v, want 0", got)
	}
}

func TestSegmentPercentile(t *testing.T) {
	// Three chunks of 1000 for a p99; a burst of slow samples in the
	// middle chunk moves that chunk's p99 only.
	xs := make([]float64, 3500) // the 500-sample tail joins the last chunk
	for i := range xs {
		xs[i] = float64(i%1000) / 1000
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 50
	}
	segs := chunks(xs, 99, 1)
	if len(segs) != 3 || len(segs[2]) != 1500 {
		t.Fatalf("chunks: %d segments, last %d long", len(segs), len(segs[len(segs)-1]))
	}
	got, err := segmentPercentile(segs, 99)
	if err != nil || got != 0.989 { // rank 990 of a 0..0.999 chunk
		t.Errorf("segmented p99 = %v, %v; want 0.989", got, err)
	}
	if p99, _ := percentile(xs, 99); p99 != 50 {
		t.Errorf("plain p99 = %v, want the burst's 50", p99)
	}
	if got := len(chunks(xs[:150], 90, 1)); got != 1 {
		t.Errorf("150 samples make %d p90 chunks, want 1", got)
	}
	// Chunks of a whole number of rounds through 16 kinds: 112, not 100.
	if segs := chunks(xs[:250], 90, 16); len(segs) != 2 || len(segs[0]) != 112 || len(segs[1]) != 138 {
		t.Errorf("p90 chunks in rounds of 16: %d segments", len(segs))
	}
	if _, err := segmentPercentile(chunks(xs[:999], 99, 1), 99); err == nil {
		t.Errorf("p99 of 999 samples accepted")
	}
	if _, err := segmentPercentile(nil, 50); err == nil {
		t.Errorf("no segments accepted")
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(id, parent, from, to int) span {
	return span{ID: id, Parent: parent, Start: at(from), End: at(to), Layer: "l" + string(rune('0'+id))}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	parent := sp(0, -1, 0, 100)
	children := []span{
		sp(1, 0, 10, 30),
		sp(2, 0, 20, 40),  // overlaps the first
		sp(3, 0, 35, 38),  // nested inside the second
		sp(4, 0, 90, 120), // sticks out past the parent's end
		sp(5, 0, 50, 50),  // empty
	}
	// Covered: [10,40] and [90,100] = 40 ms.
	if got := selfTime(parent, children); got != 60*time.Millisecond {
		t.Errorf("selfTime = %v, want 60ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}

	// A tree: the grandchild only reduces its own parent's self time.
	tree := []span{
		sp(0, -1, 0, 100),
		sp(1, 0, 10, 60),
		sp(2, 1, 20, 30),
		sp(3, 1, 25, 50), // overlaps its sibling
		sp(4, 0, 50, 70), // overlaps span 1 inside span 0
	}
	self := selfTimes(tree)
	want := map[int]time.Duration{
		0: 40 * time.Millisecond, // 100 - [10,70]
		1: 20 * time.Millisecond, // 50 - [20,50]
		2: 10 * time.Millisecond,
		3: 25 * time.Millisecond,
		4: 20 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	// Overlapping siblings are each counted whole, so the self times sum to
	// more than the root's 100 ms by the overlaps (5 ms of span 3 on 2,
	// 10 ms of 4 on 1).
	if sum != 115*time.Millisecond {
		t.Errorf("layer self sum = %v, want 115ms", sum)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := splitKernels(7), splitKernels(7), splitKernels(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different kernel split: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave the same kernel split %v", a)
	}
	if !reflect.DeepEqual(sweepFigures(a.Sweep, exactInsts, sampleSpec), sweepFigures(b.Sweep, exactInsts, sampleSpec)) {
		t.Errorf("same seed, different cell list")
	}
	if reflect.DeepEqual(sweepFigures(a.Sweep, exactInsts, sampleSpec), sweepFigures(c.Sweep, exactInsts, sampleSpec)) {
		t.Errorf("seeds 7 and 8 gave the same cell list")
	}
	p, q, r := fabricPlan(7, 100, 500), fabricPlan(7, 100, 500), fabricPlan(8, 100, 500)
	if !reflect.DeepEqual(p, q) {
		t.Errorf("same seed, different fabric schedule")
	}
	if reflect.DeepEqual(p.Schedule, r.Schedule) || reflect.DeepEqual(p.Warm, r.Warm) {
		t.Errorf("seeds 7 and 8 gave the same fabric schedule or warm set")
	}
}

func TestMachineTicks(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc/stat")
	}
	steal, all := machineTicks()
	if all == 0 || steal > all {
		t.Errorf("machineTicks = %d stolen of %d", steal, all)
	}
}

func TestSweepFigures(t *testing.T) {
	kernels := splitKernels(5).Sweep
	figs := sweepFigures(kernels, exactInsts, pipeline.SampleSpec{})
	if len(figs) != 4 {
		t.Fatalf("%d figures, want Fig. 5, 6, 7 and 8", len(figs))
	}
	seen := map[string]bool{}
	for f, byKernel := range figs {
		if len(byKernel) != len(kernels) {
			t.Fatalf("figure %d covers %d kernels, want %d", f, len(byKernel), len(kernels))
		}
		for k, cells := range byKernel {
			for _, j := range cells {
				key := engine.Fingerprint(j.Config, j.Bench, j.Insts)
				if j.Bench != kernels[k] || j.Insts != exactInsts || seen[key] {
					t.Errorf("figure %d kernel %s: cell %s/%s/%d misplaced or repeated", f, kernels[k], j.Bench, j.Config.Name, j.Insts)
				}
				seen[key] = true
			}
		}
	}
	if want := 21 * len(kernels); len(seen) != want {
		t.Errorf("%d distinct cells, want %d (21 per kernel)", len(seen), want)
	}
}

func TestKernelSplit(t *testing.T) {
	for _, k := range heldOutPool {
		if _, ok := workload.Get(k); !ok {
			t.Fatalf("held-out pool names unknown kernel %s", k)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		s := splitKernels(seed)
		if len(s.HeldOut) != heldOutKernels || len(s.Sweep)+len(s.HeldOut) != len(workload.Names()) {
			t.Fatalf("seed %d: split %v", seed, s)
		}
		for _, k := range s.HeldOut {
			if slices.Contains(s.Sweep, k) || !slices.Contains(heldOutPool, k) {
				t.Errorf("seed %d: held-out kernel %s swept or outside the pool", seed, k)
			}
		}
		for _, k := range workload.Names() {
			if !slices.Contains(heldOutPool, k) && !slices.Contains(s.Sweep, k) {
				t.Errorf("seed %d: kernel %s outside the pool not swept", seed, k)
			}
		}
	}
}

func TestFabricClassShares(t *testing.T) {
	const n = 40000
	in := fabricPlan(3, 100, n)
	if len(in.Hot) != hotCells || len(in.Warm) != warmCells {
		t.Fatalf("hot %d warm %d cells", len(in.Hot), len(in.Warm))
	}
	hot, warm := map[cell]bool{}, map[cell]bool{}
	for _, c := range in.Hot {
		hot[c] = true
	}
	for _, c := range in.Warm {
		if hot[c] {
			t.Fatalf("cell %s is both hot and warm", c)
		}
		warm[c] = true
	}
	counts := map[string]int{}
	cold := map[cell]bool{}
	coldKernels := map[string]int{}
	for i, r := range in.Schedule {
		counts[r.Class]++
		if want := time.Duration(float64(i) / 100 * float64(time.Second)); r.Due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.Due, want)
		}
		switch r.Class {
		case classHot:
			if !hot[r.Cells[0]] {
				t.Errorf("hot request for non-hot cell %s", r.Cells[0])
			}
		case classWarm, classPeer:
			if !warm[r.Cells[0]] {
				t.Errorf("%s request for non-warm cell %s", r.Class, r.Cells[0])
			}
		case classCold:
			c := r.Cells[0]
			if cold[c] || hot[c] || warm[c] {
				t.Errorf("cold cell %s seen before", c)
			}
			cold[c] = true
			coldKernels[c.Bench]++
		case classSweep:
			a, b := r.Cells[0], r.Cells[1]
			if a.Config != b.Config || a.Bench == b.Bench || !warm[a] || !warm[b] {
				t.Errorf("sweep cells %s, %s", a, b)
			}
		}
	}
	lo, hi := n, 0
	for _, k := range workload.Names() {
		lo, hi = min(lo, coldKernels[k]), max(hi, coldKernels[k])
	}
	if hi-lo > 1 {
		t.Errorf("cold requests per kernel range from %d to %d, want a balanced mix", lo, hi)
	}
	for _, cs := range classShares {
		got := float64(counts[cs.class]) / n
		// Four standard deviations of a binomial share at this n.
		tol := 4 * math.Sqrt(cs.share*(1-cs.share)/n)
		if math.Abs(got-cs.share) > tol {
			t.Errorf("class %s: share %.4f, want %.2f ± %.4f", cs.class, got, cs.share, tol)
		}
	}
}

func TestWindowInsts(t *testing.T) {
	for _, tc := range []struct {
		total uint64
		want  uint64
	}{
		{sampledInsts, 4 * (sampleSpec.Warmup + sampleSpec.Detail)},
		{30000, 4000}, // one window
		{500, 500},    // budget shorter than a window
		{50001, 4001}, // the second window is cut to the one instruction left
	} {
		if got := windowInsts(tc.total, sampleSpec); got != tc.want {
			t.Errorf("windowInsts(%d) = %d, want %d", tc.total, got, tc.want)
		}
	}
	if got := windowInsts(1234, pipeline.SampleSpec{}); got != 1234 {
		t.Errorf("exact windowInsts = %d, want the budget", got)
	}
}

// The metric tables in main.go are what the command prints; they must be
// exactly the metrics BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, table []struct{ name, unit string }) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(declared), len(table))
		}
		for i := range declared {
			if i < len(table) && (declared[i].Name != table[i].name || declared[i].Unit != table[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, table[i].name, table[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"sweep-exact", "sweep-sampled", "fabric-mix"}) {
		t.Errorf("workloads %v", names)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", n)
		}
	}
}
