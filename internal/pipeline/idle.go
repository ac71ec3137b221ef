package pipeline

// Idle-cycle skipping. The simulated machines spend most cycles waiting:
// a load misses, the ROB head cannot retire, fetch is stalled, and no stage
// has anything to do. A step that changes no state (Core.worked stays
// false) is idle, and so is every following cycle until one of the timed
// conditions the stages test changes its answer. Run therefore moves the
// clock straight to the earliest such cycle instead of stepping through
// the run, charging each skipped cycle the stall counters the idle step
// charged. The triggers below are every comparison against c.cycle that
// an idle step can make; any other change of state first needs a step that
// does work.
//
// step stays the per-cycle primitive: skipping only decides which cycles
// need no step at all, so results are identical to stepping every cycle
// (TestIdleSkipMatchesStepping and FuzzIdleSkip check it in lockstep).

// idleTrigger is one timed condition: next returns the earliest cycle at or
// after c.cycle at which the condition can let a stage act, or ^0 if it
// holds nothing back.
type idleTrigger struct {
	name string
	next func(c *Core) uint64
}

// idleTriggers lists the conditions; skipIdle lands on the earliest.
var idleTriggers = []idleTrigger{
	// writeback drains the completion events of each cycle.
	{"events", func(c *Core) uint64 { return c.events.next(c.cycle) }},
	// sweep moves woken uops into the ready set.
	{"wakeup-wheel", func(c *Core) uint64 { return c.nextWheelCycle() }},
	{"far-wake", func(c *Core) uint64 { return c.farMin }},
	// scanPendingSTD completes store data halves. The data producer's
	// completion event normally falls on the same cycle; this trigger keeps
	// the skip from depending on that.
	{"std-due", func(c *Core) uint64 { return c.stdDue }},
	// fetch resumes after an I$ miss, a BTB bubble or a flush redirect.
	{"fetch-stall", func(c *Core) uint64 {
		if c.haltSeen || c.waitBranchSeq != ^uint64(0) {
			return ^uint64(0)
		}
		return due(c.fetchStallTil, c.cycle)
	}},
	// rename takes the fetch-queue head once it leaves the front-end pipe.
	{"front-pipe", func(c *Core) uint64 {
		if c.fetchLen == 0 {
			return ^uint64(0)
		}
		return due(c.fetchQFront().fetchC+uint64(c.cfg.FrontDepth), c.cycle)
	}},
	// commit retires a completed head after the commit/rex pipeline depth
	// and, under real re-execution, once its re-access is done.
	{"commit-lat", func(c *Core) uint64 {
		u := c.rob.headUop()
		if u == nil || !u.completed {
			return ^uint64(0)
		}
		return due(u.completeC+c.cfg.commitLat(), c.cycle)
	}},
	{"rex-done", func(c *Core) uint64 {
		u := c.rob.headUop()
		if c.cfg.Rex != RexReal || u == nil {
			return ^uint64(0)
		}
		return due(u.rexDoneAt, c.cycle)
	}},
	// The periodic NLQsm invalidation and store-set clear.
	{"nlqsm-interval", func(c *Core) uint64 {
		if !c.cfg.NLQSM.Enabled {
			return ^uint64(0)
		}
		return nextMultiple(c.cfg.NLQSM.IntervalCycles, c.cycle)
	}},
	{"ss-clear", func(c *Core) uint64 { return nextMultiple(c.cfg.SS.ClearInterval, c.cycle) }},
	// Run stops at the cycle limit.
	{"max-cycles", func(c *Core) uint64 {
		if c.cfg.MaxCycles == 0 {
			return ^uint64(0)
		}
		return due(c.cfg.MaxCycles, c.cycle)
	}},
}

// due returns at when it is still ahead of (or at) now, else ^0: a deadline
// already passed no longer holds anything back.
func due(at, now uint64) uint64 {
	if at < now {
		return ^uint64(0)
	}
	return at
}

// nextMultiple returns the first positive multiple of iv at or after now,
// or ^0 when iv is zero (the periodic event is off).
func nextMultiple(iv, now uint64) uint64 {
	if iv == 0 {
		return ^uint64(0)
	}
	return max((now+iv-1)/iv, 1) * iv
}

// skipIdle runs after an idle step: it moves the clock to the earliest
// trigger and charges the cycles in between as the idle step was charged.
// The head's stall cause cannot change before a trigger, and an idle step
// tried no ready uop, so every parked load counted as a failed retry.
func (c *Core) skipIdle() {
	next := ^uint64(0)
	for i := range idleTriggers {
		next = min(next, idleTriggers[i].next(c))
	}
	if next <= c.cycle || next == ^uint64(0) {
		return
	}
	n := next - c.cycle
	u := c.rob.headUop()
	c.chargeStall(c.headStall(u), u, n)
	c.stats.LoadWaitSS += n * uint64(c.nParkedSS)
	c.stats.LoadWaitCommit += n * uint64(c.nParkedCmt)
	c.cycle = next
}
