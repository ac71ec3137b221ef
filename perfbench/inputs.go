package main

// Seeded inputs. Everything a workload feeds the program is a pure function
// of --seed: the kernel split, the sweep cell lists and the fabric's cell
// classes and request schedule. The program only ever sees these generated
// inputs.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
	"svwsim/internal/workload"
)

// heldOutPool is where the seed draws the held-out kernels from: six of the
// kernels that cost the least host time per simulated instruction (1.0–1.5
// µs in exact 20000-instruction cells on a 2-vCPU Xeon, against 1.4–12 µs
// for the rest). Every other kernel is always swept, so the costly part of
// a sweep, where its median cell and its total time sit, is the same for
// every seed. When the seed drew held-out kernels from all sixteen,
// the median cold-cell latency moved by 20% between seeds on kernel choice
// alone.
var heldOutPool = []string{"bzip2", "crafty", "eon.c", "eon.k", "gzip", "vortex"}

// heldOutKernels is how many kernels each seed keeps out of the sweeps to
// measure sampling error on. Kernels differ in sampling error (vortex's is
// about half the others'), so the more are held out, the less the error
// moves with the seed's choice: holding out four of the pool, its median
// moved by 8% (IQR over median) across choices, five, by 4%.
const heldOutKernels = 5

// kernelSplit is one seed's choice of kernels: Sweep in the seeded order
// the sweeps run them, HeldOut sorted.
type kernelSplit struct {
	Sweep   []string
	HeldOut []string
}

func splitKernels(seed int64) kernelSplit {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]string(nil), heldOutPool...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	held := pool[:heldOutKernels]
	sort.Strings(held)
	var sweep []string
	for _, k := range workload.Names() {
		if !slices.Contains(held, k) {
			sweep = append(sweep, k)
		}
	}
	rng.Shuffle(len(sweep), func(i, j int) { sweep[i], sweep[j] = sweep[j], sweep[i] })
	return kernelSplit{Sweep: sweep, HeldOut: held}
}

// studyFigures returns the Fig. 5–8 cells of one kernel, one slice per
// figure: the three load-optimization ladders (baseline plus four rungs
// each) and the six SSBF organizations of Fig. 8.
func studyFigures(bench string, insts uint64, spec pipeline.SampleSpec) [][]engine.Job {
	var figs [][]engine.Job
	for _, l := range []sim.Ladder{sim.Fig5Ladder(), sim.Fig6Ladder(), sim.Fig7Ladder()} {
		figs = append(figs, sim.LadderJobs(l, []string{bench}, insts))
	}
	var fig8 []engine.Job
	for _, v := range sim.Fig8Variants() {
		cfg := sim.SSQ(sim.SVWUpd)
		cfg.SVW.SSBF = v.Cfg
		cfg.Name = "ssq+svw/" + v.Label
		fig8 = append(fig8, engine.Job{Study: "fig8-ssbf", Label: v.Label,
			Config: cfg, Bench: bench, Insts: insts})
	}
	figs = append(figs, fig8)
	for _, jobs := range figs {
		for i := range jobs {
			jobs[i].Sample = spec
		}
	}
	return figs
}

// sweepFigures is the whole sweep grouped the way its passes run it: for
// each figure, every kernel's cells of that figure, in the split's seeded
// kernel order (figure → kernel → cells).
func sweepFigures(kernels []string, insts uint64, spec pipeline.SampleSpec) [][][]engine.Job {
	var figs [][][]engine.Job
	for _, k := range kernels {
		for f, cells := range studyFigures(k, insts, spec) {
			if f == len(figs) {
				figs = append(figs, nil)
			}
			figs[f] = append(figs[f], cells)
		}
	}
	return figs
}

// --- fabric-mix ----------------------------------------------------------

// cell is one simulation result the fabric serves.
type cell struct {
	Config string
	Bench  string
	Insts  uint64
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/%d", c.Config, c.Bench, c.Insts) }

// key is the cell's store key, the same fingerprint the daemons use.
func (c cell) key() string {
	cfg, _ := sim.ConfigByName(c.Config)
	return engine.Fingerprint(cfg, c.Bench, c.Insts)
}

// Request classes. hot, warm and peer name the tier the generator aims at;
// responses are classified by the origin the daemon reports, not by these.
const (
	classHot   = "hot"
	classWarm  = "warm"
	classPeer  = "peer"
	classCold  = "cold"
	classSweep = "sweep"
)

// classShares is the request mix: the share of all requests per class.
var classShares = []struct {
	class string
	share float64
}{
	{classHot, 0.44},
	{classWarm, 0.31},
	{classPeer, 0.10},
	{classCold, 0.09},
	{classSweep, 0.06},
}

const (
	hotCells  = 6   // a set that stays in the backends' memory tiers
	warmCells = 96  // several times the two memory tiers together
	cellInsts = 400 // budget of hot and warm cells
	// Cold cells take budgets from coldInsts up, one more per round through
	// the kernels, so each is a cell the fabric has never seen (above
	// cellInsts, no two of a kernel alike) and every cold cell costs about
	// the same.
	coldInsts = 500
)

// fabricRequest is one scheduled request: a single-cell /v1/run, or a
// two-cell /v1/sweep (one config, two kernels) for classSweep.
type fabricRequest struct {
	Due   time.Duration // offset from the window start
	Class string
	Cells []cell
}

type fabricInputs struct {
	Hot, Warm []cell
	Schedule  []fabricRequest
}

// fabricPlan draws the cell sets and an open-loop schedule of n requests
// spaced evenly at rate per second.
func fabricPlan(seed int64, rate float64, n int) fabricInputs {
	rng := rand.New(rand.NewSource(seed))
	configs := sim.ConfigNames()
	benches := workload.Names()
	var all []cell
	for _, c := range configs {
		for _, b := range benches {
			all = append(all, cell{Config: c, Bench: b, Insts: cellInsts})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	in := fabricInputs{
		Warm: all[:warmCells],
		Hot:  all[warmCells : warmCells+hotCells],
	}
	byConfig := make(map[string][]cell)
	for _, c := range in.Warm {
		byConfig[c.Config] = append(byConfig[c.Config], c)
	}
	var sweepConfigs []string
	for _, c := range configs {
		if len(byConfig[c]) >= 2 {
			sweepConfigs = append(sweepConfigs, c)
		}
	}

	cold := 0
	var coldOrder []int
	for i := 0; i < n; i++ {
		r := fabricRequest{Due: time.Duration(float64(i) / rate * float64(time.Second))}
		u := rng.Float64()
		for _, cs := range classShares {
			r.Class = cs.class
			if u < cs.share {
				break
			}
			u -= cs.share
		}
		switch r.Class {
		case classHot:
			r.Cells = []cell{in.Hot[rng.Intn(len(in.Hot))]}
		case classWarm, classPeer:
			r.Cells = []cell{in.Warm[rng.Intn(len(in.Warm))]}
		case classCold:
			// Cold cells cycle through every kernel in a seeded order, so
			// each seed computes the same kernel mix: drawn at random, the
			// few costly kernels made the p90 cold latency move by a third between
			// seeds.
			if cold%len(benches) == 0 {
				coldOrder = rng.Perm(len(benches))
			}
			r.Cells = []cell{{
				Config: configs[rng.Intn(len(configs))],
				Bench:  benches[coldOrder[cold%len(benches)]],
				Insts:  coldInsts + uint64(cold/len(benches)),
			}}
			cold++
		case classSweep:
			group := byConfig[sweepConfigs[rng.Intn(len(sweepConfigs))]]
			a := rng.Intn(len(group))
			b := (a + 1 + rng.Intn(len(group)-1)) % len(group)
			r.Cells = []cell{group[a], group[b]}
		}
		in.Schedule = append(in.Schedule, r)
	}
	return in
}
