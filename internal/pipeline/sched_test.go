package pipeline

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"svwsim/internal/prog"
	"svwsim/internal/rle"
	"svwsim/internal/workload"
)

// Scheduler-equivalence oracle. The wakeup/select scheduler (sched.go)
// replaced a polling issue queue that, every cycle, re-checked the sources
// of every queued uop. The oracle keeps that polling predicate and asserts,
// cycle by cycle, that the uops select may try -- ready, parked, or due to
// join ready at this cycle's sweep -- are exactly the queued uops the
// predicate picks, and that the scheduler's counts and sets are coherent.

// srcsReadyFor is the polling wakeup rule: a consumer may issue at cycle t
// if each producer's value arrives by its execute start, t + RegReadDepth.
// Stores wait only for their address base (split STA/STD).
func srcsReadyFor(c *Core, u *uop) bool {
	execStart := c.cycle + uint64(c.cfg.RegReadDepth)
	n := u.nsrc
	if u.isStore() {
		n = 1
	}
	for i := 0; i < n; i++ {
		if c.readyAt[u.srcPhys[i]] > execStart {
			return false
		}
	}
	return true
}

// pollingPicks reports whether the polling issue stage would consider u
// this cycle.
func pollingPicks(c *Core, u *uop) bool {
	return !u.issued && !u.completed &&
		c.cycle >= u.renameC+uint64(c.cfg.SchedDepth) && srcsReadyFor(c, u)
}

// wokenAt reports whether select may try the uop in slot this cycle: it is
// in ready or parked, or sweep will move it to ready before select runs.
func wokenAt(c *Core, slot int) bool {
	if c.ready.has(slot) || c.parkedSS.has(slot) || c.parkedCmt.has(slot) {
		return true
	}
	if c.far.has(slot) && c.wakeAt[slot] <= c.cycle {
		return true
	}
	for t := c.swept + 1; t <= c.cycle && t <= c.swept+wheelSlots; t++ {
		k := t % wheelSlots
		if c.wheel[k].has(slot) && c.wheelWords[k]&(1<<(slot>>6&63)) != 0 {
			return true
		}
	}
	return false
}

// schedChecker compares the scheduler against the polling predicate and
// checks its bookkeeping. It runs between cycles, on the state the next
// cycle's issue stage starts from.
type schedChecker struct {
	in        []int // per ROB slot: how many scheduler sets hold it
	picksOnly bool  // compare with the polling predicate, skip bookkeeping
}

func (k *schedChecker) check(c *Core) error {
	for off := 0; off < c.rob.count; off++ {
		seq := c.rob.headSeq + uint64(off)
		u := c.rob.at(seq)
		if old, now := pollingPicks(c, u), wokenAt(c, c.rob.slot(seq)); old != now {
			return fmt.Errorf("cycle %d: seq %d (%v): polling picks %v, wakeup/select %v",
				c.cycle, seq, u.dyn.Inst, old, now)
		}
	}
	if k.picksOnly {
		return nil
	}
	if len(k.in) != len(c.rob.buf) {
		k.in = make([]int, len(c.rob.buf))
	}
	clear(k.in)
	total := 0
	mark := func(s slotSet) int {
		n := 0
		for i, w := range s {
			for ; w != 0; w &= w - 1 {
				k.in[i<<6|bits.TrailingZeros64(w)]++
				n++
			}
		}
		total += n
		return n
	}
	for _, n := range []struct {
		name string
		got  int
		set  slotSet
	}{{"readyN", c.readyN, c.ready}, {"nParkedSS", c.nParkedSS, c.parkedSS}, {"nParkedCmt", c.nParkedCmt, c.parkedCmt}} {
		if want := mark(n.set); n.got != want {
			return fmt.Errorf("cycle %d: %s = %d, set holds %d", c.cycle, n.name, n.got, want)
		}
	}
	mark(c.far)
	for _, b := range c.wheel {
		mark(b)
	}

	queued, members := 0, 0
	for off := 0; off < c.rob.count; off++ {
		seq := c.rob.headSeq + uint64(off)
		u, slot := c.rob.at(seq), c.rob.slot(seq)
		in := k.in[slot]
		members += in
		if u.issued || u.completed {
			if in != 0 {
				return fmt.Errorf("cycle %d: seq %d left the IQ but is in %d sets", c.cycle, seq, in)
			}
			continue
		}
		queued++
		want := 0
		if c.pending[slot] == 0 {
			want = 1
		}
		if in != want {
			return fmt.Errorf("cycle %d: seq %d with %d pending sources is in %d sets",
				c.cycle, seq, c.pending[slot], in)
		}
		if c.slotUID[slot] != u.uid {
			return fmt.Errorf("cycle %d: seq %d slot uid %d, uop uid %d", c.cycle, seq, c.slotUID[slot], u.uid)
		}
	}
	if total != members {
		return fmt.Errorf("cycle %d: %d set bits outside the ROB window", c.cycle, total-members)
	}
	if queued != c.iqCount {
		return fmt.Errorf("cycle %d: iqCount %d, %d uops queued", c.cycle, c.iqCount, queued)
	}
	return nil
}

// stepChecked runs the core to completion, checking the scheduler with k
// before every cycle; inject, when non-nil, may tamper with the core first.
func stepChecked(c *Core, k *schedChecker, inject func(*Core)) error {
	for !c.done {
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			return fmt.Errorf("cycle limit hit at %d commits", c.stats.Committed)
		}
		if inject != nil {
			inject(c)
		}
		if err := k.check(c); err != nil {
			return err
		}
		c.step()
		if err := c.stream.Err(); err != nil {
			return err
		}
	}
	c.finalizeStats()
	return nil
}

// buildPartialOverlapLoop returns a program whose loads overlap an older
// in-flight byte store only partly, so they wait for its commit.
func buildPartialOverlapLoop(iters int64) *prog.Program {
	b := prog.NewBuilder("partial")
	base := uint64(prog.DefaultDataBase)
	b.MovImm(2, base)
	b.MovImm(1, uint64(iters))
	b.Label("top")
	b.Stb(1, 3, 2) // byte store into the quad
	b.Ldq(4, 0, 2) // quad load: partial overlap, waits for the commit
	b.Add(5, 4, 1)
	b.Stq(5, 16, 2)
	b.Addi(1, 1, -1)
	b.Bne(1, "top")
	b.Halt()
	return b.Build()
}

func nlqConfig() Config {
	cfg := testConfig()
	cfg.LSU = LSUNLQ
	cfg.LQSearch = false
	cfg.StoreIssue = 2
	cfg.Rex = RexReal
	cfg.SVW.Enabled = true
	cfg.SVW.UpdateOnForward = true
	return cfg
}

func ssqConfig() Config {
	cfg := testConfig()
	cfg.LSU = LSUSSQ
	cfg.Rex = RexReal
	cfg.SVW.Enabled = true
	return cfg
}

func TestSchedulerMatchesPolling(t *testing.T) {
	violations := testConfig()
	violations.SS.ClearInterval = 200
	violations.WarmupInsts = 0
	rleSquash := testConfig()
	rleSquash.RLE.Enabled = true
	rleSquash.RLE.SquashReuse = true
	rleSquash.Rex = RexReal
	mispredicts := workload.TestProfile(11)
	mispredicts.BranchNoisePct = 40

	cases := []struct {
		name  string
		cfg   Config
		p     *prog.Program
		check func(*Stats) error
	}{
		{"baseline", testConfig(), testProgram(), nil},
		{"nlq", nlqConfig(), testProgram(), nil},
		{"ssq", ssqConfig(), testProgram(), nil},
		{"violations-baseline", violations, buildViolationLoop(2_000), func(s *Stats) error {
			if s.OrderingViolations == 0 {
				return fmt.Errorf("no ordering violations")
			}
			return nil
		}},
		{"violations-nlq", func() Config {
			c := nlqConfig()
			c.SS.ClearInterval = 200
			c.WarmupInsts = 0
			return c
		}(), buildViolationLoop(2_000), func(s *Stats) error {
			if s.RexFailures == 0 {
				return fmt.Errorf("no re-execution failures")
			}
			return nil
		}},
		{"mispredicts-ssq", ssqConfig(), workload.Build(mispredicts), func(s *Stats) error {
			if s.Mispredicts*20 < s.CommittedBr {
				return fmt.Errorf("only %d mispredicts in %d branches", s.Mispredicts, s.CommittedBr)
			}
			return nil
		}},
		{"rle-squash-reuse", rleSquash, testProgram(), func(s *Stats) error {
			if s.ElimSquash == 0 {
				return fmt.Errorf("no squash-reuse eliminations")
			}
			return nil
		}},
		{"partial-overlap", func() Config {
			c := testConfig()
			c.WarmupInsts = 0
			c.MaxInsts = 6_000
			return c
		}(), buildPartialOverlapLoop(1_000), func(s *Stats) error {
			if s.LoadWaitCommit == 0 {
				return fmt.Errorf("no loads waited for a store commit")
			}
			return nil
		}},
		{"tiny-ssq", func() Config {
			c := ssqConfig()
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.PhysRegs = 16, 8, 6, 4, 64
			c.MaxInsts, c.WarmupInsts = 8_000, 0
			return c
		}(), testProgram(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg, tc.p)
			if err := stepChecked(c, &schedChecker{}, nil); err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				if err := tc.check(c.Stats()); err != nil {
					t.Fatalf("workload does not exercise its case: %v", err)
				}
			}
			verifyArchState(t, c, tc.p)
		})
	}
}

// TestSchedulerMatchesPollingAcrossResetWindow runs sampled-style windows
// on one core: the scheduler must start every window coherent with the
// carried-over clock.
func TestSchedulerMatchesPollingAcrossResetWindow(t *testing.T) {
	p := workload.Cached("gcc")
	cfg := nlqConfig()
	cfg.WarmupInsts = 500
	cfg.MaxInsts = 2_000
	c := New(cfg, p)
	if err := stepChecked(c, &schedChecker{}, nil); err != nil {
		t.Fatal(err)
	}
	skip := uint64(0)
	for w := 0; w < 3; w++ {
		skip += 10_000
		ff := New(cfg, p)
		if _, err := ff.FastForward(skip); err != nil {
			t.Fatal(err)
		}
		c.ResetWindow(cfg, p, ff.EmuState())
		if err := stepChecked(c, &schedChecker{}, nil); err != nil {
			t.Fatalf("window %d: %v", w+1, err)
		}
	}
	if c.Stats().Committed == 0 {
		t.Fatal("last window committed nothing")
	}
}

// TestSchedulerOracleCatchesDroppedWakeup is the oracle's teeth control:
// unlinking one consumer-list node -- a dropped wakeup -- must be reported.
func TestSchedulerOracleCatchesDroppedWakeup(t *testing.T) {
	cfg := nlqConfig()
	cfg.MaxCycles = 200_000
	c := New(cfg, testProgram())
	dropped := false
	// Only the comparison with the polling predicate runs, to show that it
	// alone catches the fault.
	err := stepChecked(c, &schedChecker{picksOnly: true}, func(c *Core) {
		if dropped || c.cycle < 2_000 {
			return
		}
		for p, i := range c.consHead {
			if i >= 0 && !c.cons[i].std {
				c.consHead[p] = c.cons[i].next
				dropped = true
				return
			}
		}
	})
	if !dropped {
		t.Fatal("found no consumer node to drop")
	}
	if err == nil || !strings.Contains(err.Error(), "polling picks") {
		t.Fatalf("oracle missed a dropped wakeup: %v", err)
	}
	t.Logf("dropped wakeup reported: %v", err)
}

// TestResetWindowAllocations bounds what a window reset allocates on a
// warmed core: the carried substrates (cache hierarchy, predictor,
// store-sets, SPCT, steering) must not be rebuilt and thrown away. What
// remains is the snapshot's memory, cloned for the emulator and the
// committed image, plus the SSBF and IT the window rebuilds.
func TestResetWindowAllocations(t *testing.T) {
	p := workload.Cached("gcc")
	cfg := ssqConfig()
	cfg.RLE.Enabled = true
	cfg.RLE.IT = rle.DefaultConfig()
	cfg.WarmupInsts = 500
	cfg.MaxInsts = 2_000
	ff := New(cfg, p)
	if _, err := ff.FastForward(10_000); err != nil {
		t.Fatal(err)
	}
	st := ff.EmuState()
	c := New(cfg, p)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.ResetWindow(cfg, p, st)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Two clones of each page plus a few dozen fixed objects.
	bound := float64(2*(st.Mem.Pages()+4) + 64)
	got := testing.AllocsPerRun(5, func() { c.ResetWindow(cfg, p, st) })
	if got > bound {
		t.Errorf("ResetWindow allocates %v objects on a warmed core, want <= %v", got, bound)
	}
	fresh := testing.AllocsPerRun(2, func() { New(cfg, p) })
	t.Logf("ResetWindow: %v allocs; New: %v allocs", got, fresh)
}
