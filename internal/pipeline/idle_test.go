package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"svwsim/internal/prog"
	"svwsim/internal/workload"
)

// Idle-skip equivalence oracle. Run moves the clock over idle cycles
// (idle.go); a plain core that steps every cycle is the reference. The two
// run in lockstep: after each advance of the skipping core, the reference
// steps the same cycle and then every cycle that was skipped. Each of those
// must be idle, judged both by the step's own flag and, independently of
// it, by the machine state: nothing but the clock and the bulk-charged
// stall counters may move. The two machines must then agree.

// errCycleLimit reports a lockstep that stopped at MaxCycles with the two
// machines still in agreement.
var errCycleLimit = errors.New("cycle limit hit")

// lockstep runs skip with Run's advance and ref with step alone until both
// are done or hit the cycle limit; both must start from the same state.
func lockstep(skip, ref *Core) error {
	for !skip.done {
		if skip.cfg.MaxCycles > 0 && skip.cycle >= skip.cfg.MaxCycles {
			if err := agree(skip, ref); err != nil {
				return err
			}
			return errCycleLimit
		}
		skip.advance()
		ref.step()
		for !ref.done && ref.cycle < skip.cycle {
			at, before, stats := ref.cycle, see(ref), idleStats(ref)
			ref.step()
			before.cycle = ref.cycle
			if ref.worked || see(ref) != before || idleStats(ref) != stats {
				return fmt.Errorf("cycle %d was skipped, but a stepping core does work in it", at)
			}
		}
		if err := agree(skip, ref); err != nil {
			return err
		}
		for _, c := range []*Core{skip, ref} {
			if err := c.stream.Err(); err != nil {
				return err
			}
		}
	}
	skip.finalizeStats()
	ref.finalizeStats()
	return agree(skip, ref)
}

// view is the scalar machine state the next step depends on.
type view struct {
	cycle, committed, uid, rexHead, headSeq   uint64
	fetchStallTil, waitBranch, lastFetchLine  uint64
	farMin, stdDue                            uint64
	robCount, fetchLen, iq, readyN, pSS, pCmt int
	pending                                   int64
	halt, drain, done                         bool
}

func see(c *Core) view {
	pending := int64(-1)
	if c.pendingRec != nil {
		pending = int64(c.pendingRec.Seq)
	}
	return view{
		c.cycle, c.committedTotal, c.uidGen, c.rexHead, c.rob.headSeq,
		c.fetchStallTil, c.waitBranchSeq, c.lastFetchLine,
		c.farMin, c.stdDue,
		c.rob.count, c.fetchLen, c.iqCount, c.readyN, c.nParkedSS, c.nParkedCmt,
		pending,
		c.haltSeen, c.drainPending, c.done,
	}
}

// idleStats returns c's counters without those an idle cycle charges.
func idleStats(c *Core) Stats {
	s := c.stats
	s.StallHeadEmpty, s.StallIncomplete, s.StallCommitLat, s.StallRexWait = 0, 0, 0, 0
	s.StallHeadLoad, s.StallHeadStore, s.StallHeadALU, s.StallHeadBranch, s.StallHeadUnissued = 0, 0, 0, 0, 0
	s.LoadWaitSS, s.LoadWaitCommit = 0, 0
	return s
}

// agree compares the machines' state, scheduler sets and counters.
func agree(a, b *Core) error {
	if va, vb := see(a), see(b); va != vb {
		return fmt.Errorf("cycle %d: machines diverge:\n skipping %+v\n stepping %+v", b.cycle, va, vb)
	}
	setsA := append([]slotSet{a.ready, a.far, a.parkedSS, a.parkedCmt}, a.wheel...)
	setsB := append([]slotSet{b.ready, b.far, b.parkedSS, b.parkedCmt}, b.wheel...)
	for i := range setsA {
		if !slices.Equal(setsA[i], setsB[i]) {
			return fmt.Errorf("cycle %d: scheduler set %d diverges: skipping %x, stepping %x",
				b.cycle, i, setsA[i], setsB[i])
		}
	}
	if a.stats != b.stats {
		return fmt.Errorf("cycle %d: stats diverge:\n skipping %+v\n stepping %+v", b.cycle, a.stats, b.stats)
	}
	return nil
}

// runLockstep builds both cores for cfg and p and runs them in lockstep.
func runLockstep(cfg Config, p *prog.Program) (*Core, error) {
	skip, ref := New(cfg, p), New(cfg, p)
	return skip, lockstep(skip, ref)
}

// idleSkipKernels are the lockstep kernels: mcf is the memory-bound one
// whose long misses make the longest idle runs.
var idleSkipKernels = []string{"gcc", "mcf", "twolf", "vortex"}

func TestIdleSkipMatchesStepping(t *testing.T) {
	// The cycle cap turns a scheduling deadlock into a quick failure.
	short := func(c Config) Config {
		c.MaxInsts, c.WarmupInsts, c.MaxCycles = 6_000, 1_000, 1_000_000
		return c
	}
	for _, cfg := range allConfigs() {
		cfg := short(cfg)
		for _, bench := range idleSkipKernels {
			t.Run(cfg.Name+"/"+bench, func(t *testing.T) {
				if _, err := runLockstep(cfg, workload.Cached(bench)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	nlqsm := short(nlqConfig())
	nlqsm.SVW.Enabled = true
	nlqsm.NLQSM = NLQSMConfig{Enabled: true, IntervalCycles: 37}
	ssClear := short(testConfig())
	ssClear.SS.ClearInterval = 97
	limit := short(ssqConfig())
	limit.MaxCycles = 5_003
	rlePressure := short(testConfig())
	rlePressure.RLE.Enabled = true
	rlePressure.Rex = RexReal
	rlePressure.PhysRegs = 48
	cases := []struct {
		name  string
		cfg   Config
		bench string
		check func(*Core, error) error
	}{
		{"nlqsm-injection", nlqsm, "mcf", func(c *Core, err error) error {
			if c.stats.Invalidations == 0 {
				return fmt.Errorf("no invalidations injected")
			}
			return err
		}},
		{"ss-clear-interval", ssClear, "gcc", nil},
		{"max-cycles", limit, "mcf", func(c *Core, err error) error {
			if !errors.Is(err, errCycleLimit) || c.cycle != limit.MaxCycles {
				return fmt.Errorf("stopped at cycle %d (%v), want the limit %d", c.cycle, err, limit.MaxCycles)
			}
			return nil
		}},
		{"rle-free-list-pressure", rlePressure, "gcc", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := runLockstep(tc.cfg, workload.Cached(tc.bench))
			if tc.check != nil {
				err = tc.check(c, err)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("reset-window", func(t *testing.T) {
		p := workload.Cached("mcf")
		cfg := nlqConfig()
		cfg.WarmupInsts, cfg.MaxInsts, cfg.MaxCycles = 500, 2_000, 10_000_000
		skip, ref := New(cfg, p), New(cfg, p)
		if err := lockstep(skip, ref); err != nil {
			t.Fatal(err)
		}
		for w, at := range []uint64{10_000, 20_000, 30_000} {
			ff := New(cfg, p)
			if _, err := ff.FastForward(at); err != nil {
				t.Fatal(err)
			}
			skip.ResetWindow(cfg, p, ff.EmuState())
			ref.ResetWindow(cfg, p, ff.EmuState())
			if err := lockstep(skip, ref); err != nil {
				t.Fatalf("window %d: %v", w+1, err)
			}
		}
	})
}

// TestEventWheelNext pins the event trigger: the next pending cycle, with
// a flush-skipped bucket discarded on the way and a bucket a whole wheel
// ahead reported early rather than late.
func TestEventWheelNext(t *testing.T) {
	var w eventWheel
	w.init()
	if got := w.next(5); got != ^uint64(0) {
		t.Fatalf("empty wheel: next = %d, want none", got)
	}
	w.schedule(0, 8, eventRec{seq: 1}) // never drained: a flush skipped it
	now := uint64(initialWheelSize + 6)
	w.schedule(now, now+100, eventRec{seq: 2})
	if got := w.next(now); got != now+100 {
		t.Fatalf("next = %d, want %d", got, now+100)
	}
	if len(w.slots[8].evs) != 0 || w.occ.has(8) {
		t.Fatal("flush-skipped bucket not discarded")
	}
	if evs := w.take(now + 100); len(evs) != 1 {
		t.Fatalf("take = %v", evs)
	}
	far := now + initialWheelSize + 7 // a wheel ahead, in the slot of now+7
	w.schedule(now, far, eventRec{seq: 3})
	if got := w.next(now); got != now+7 {
		t.Fatalf("next = %d, want %d (early for a bucket a wheel ahead)", got, now+7)
	}
	if got := w.next(now + 8); got != far {
		t.Fatalf("next = %d, want %d", got, far)
	}
}

// TestIdleSkipLockstepCatchesDroppedTrigger is the oracle's teeth control:
// with the fetch-stall trigger gone, the clock jumps past the end of a
// fetch stall and the lockstep must report it. It swaps a package-level
// trigger, so it must not run in parallel with other tests.
func TestIdleSkipLockstepCatchesDroppedTrigger(t *testing.T) {
	i := triggerIndex(t, "fetch-stall")
	saved := idleTriggers[i]
	idleTriggers[i].next = func(*Core) uint64 { return ^uint64(0) }
	defer func() { idleTriggers[i] = saved }()

	cfg := testConfig()
	cfg.MaxInsts, cfg.WarmupInsts = 6_000, 0
	_, err := runLockstep(cfg, workload.Cached("gcc"))
	if err == nil {
		t.Fatal("lockstep missed a dropped fetch-stall trigger")
	}
	t.Logf("dropped trigger reported: %v", err)
}

func triggerIndex(t *testing.T, name string) int {
	for i, tr := range idleTriggers {
		if tr.name == name {
			return i
		}
	}
	t.Fatalf("no idle trigger %q", name)
	return -1
}

// FuzzIdleSkip drives the lockstep from a fuzzed kernel profile through a
// fuzz-chosen machine configuration.
func FuzzIdleSkip(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(12), uint8(3), uint8(2), uint8(2), uint8(1), uint8(2), uint8(40), uint8(5))
	f.Add(int64(77), uint8(7), uint8(24), uint8(6), uint8(0), uint8(3), uint8(3), uint8(0), uint8(70), uint8(9))
	f.Add(int64(-9), uint8(10), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	configs := allConfigs()
	f.Fuzz(func(t *testing.T, seed int64, cfgIdx, blocks, wHash, wFwd, wReload, wBypass, wChase, ambig, noise uint8) {
		p := workload.Profile{
			Name: "fuzz", Seed: seed,
			Blocks: 1 + int(blocks%24),
			W: workload.Weights{
				Hash:   int(wHash % 8),
				Fwd:    int(wFwd % 4),
				Reload: int(wReload % 4),
				Bypass: int(wBypass % 4),
				Chase:  int(wChase % 4),
				Stream: int(seed & 3),
				Swap:   int(seed >> 2 & 1),
				ALU:    1,
				Call:   int(seed >> 3 & 3),
				Late:   int((wHash ^ wFwd) % 3),
			},
			HashEntries: 512 << (blocks % 2),
			SwapEntries: 128,
			ChaseNodes:  128 << (wChase % 3),
			CallSaves:   1 + int(wReload%6),
			FwdDist:     int(wFwd % 6),
			FwdAmbigPct: int(ambig % 80),

			BranchNoisePct: int(noise % 10),
			UseMul:         seed&16 != 0,
		}
		cfg := configs[int(cfgIdx)%len(configs)]
		cfg.MaxInsts, cfg.WarmupInsts = 2_500, uint64(noise%2)*500
		cfg.MaxCycles = 2_000_000
		if _, err := runLockstep(cfg, workload.Build(p)); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	})
}
