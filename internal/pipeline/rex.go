package pipeline

import (
	"svwsim/internal/emu"
	"svwsim/internal/rle"
)

// The re-execution pipeline (paper §2.1, Fig. 1): a decoupled, in-order
// walker (rex-head) that processes completed instructions ahead of commit.
// Stores pass through the SVW stage, writing their SSN into the SSBF
// (speculatively, by default) and entering a small internal store buffer
// that lets younger loads re-execute before the stores commit. Marked loads
// evaluate the SVW filter test; survivors re-access the data cache through
// the port shared with store retirement (commit has priority; one access
// starts per port per cycle, pipelined thereafter).
//
// The walker stalls at the first non-completed instruction and when no port
// is available for a needed re-access. Re-accesses pipeline: the walker
// advances once a load's access is launched; the load's completion time
// (rexDoneAt) gates its commit, which in turn holds back every younger
// store — the paper's critical loop — without serializing back-to-back
// re-executing loads against each other.

// rex runs the configured walker. Every walker action advances rexHead, so
// an unmoved rexHead means the walker did nothing this cycle.
func (c *Core) rex() {
	before := c.rexHead
	switch c.cfg.Rex {
	case RexReal:
		c.rexReal()
	case RexPerfect:
		c.rexPerfect()
	}
	if c.rexHead != before {
		c.worked = true
	}
}

// rexReal is the modeled walker: CommitWidth instructions per cycle, with
// re-accesses competing for the retirement ports.
func (c *Core) rexReal() {
	if !c.rob.empty() && c.rexHead < c.rob.headSeq {
		c.rexHead = c.rob.headSeq
	}
	dcacheLat := uint64(c.cfg.Mem.DCache.Latency)
	for budget := c.cfg.CommitWidth; budget > 0; budget-- {
		u := c.uopAt(c.rexHead)
		if u == nil || !u.completed || u.rexDoneAt != ^uint64(0) {
			return
		}
		switch {
		case u.isStore():
			if len(c.rexStoreBuf) >= c.cfg.RexStoreBufSize {
				return
			}
			if c.cfg.SVW.Enabled && !c.cfg.SVW.SpeculativeSSBF && c.unretiredLoadOlderThan(u.seq) {
				// Atomic SSBF policy: the store may not update the filter
				// until every previous load has retired (§3.6).
				return
			}
			if c.ssbf != nil {
				c.ssbf.Update(u.dyn.EffAddr, u.dyn.MemBytes, u.ssn)
			}
			c.rexStoreBuf = append(c.rexStoreBuf, u.seq)
			u.rexDoneAt = c.cycle
			c.rexHead++

		case u.isLoad() && u.marked:
			// SVW stage: filter test. Disabled for squash reuse (§4.3).
			// ForceFilter (testing aid) excuses everything, soundly or not.
			if c.ssbf != nil && !u.elimSquash {
				if c.cfg.SVW.ForceFilter || !c.ssbf.NeedsRexec(u.dyn.EffAddr, u.dyn.MemBytes, u.svw) {
					u.rexDoneAt = c.cycle
					u.rexFiltered = true
					c.rexHead++
					continue
				}
			}
			// Data cache re-access: needs a shared retirement-port slot;
			// store commit claimed its slots earlier this cycle.
			if c.portsUsed >= c.cfg.RetirePorts {
				return
			}
			c.portsUsed++
			c.hier.DCache.Access(u.dyn.EffAddr, c.cycle) // timing-only touch
			u.rexDoneAt = c.cycle + dcacheLat + c.rexExtraLat(u)
			c.countRex(u)
			u.rexFail = c.rexMismatch(u)
			c.rexHead++

		default:
			// Unmarked loads, ALU ops, branches: trivial pass-through.
			u.rexDoneAt = c.cycle
			c.rexHead++
		}
	}
}

// rexPerfect models ideal re-execution: zero latency, infinite bandwidth.
// Checking still happens, so mis-speculations still flush.
func (c *Core) rexPerfect() {
	if !c.rob.empty() && c.rexHead < c.rob.headSeq {
		c.rexHead = c.rob.headSeq
	}
	for {
		u := c.uopAt(c.rexHead)
		if u == nil || !u.completed || u.rexDoneAt != ^uint64(0) {
			return
		}
		if u.isLoad() && u.marked {
			// The value test is evaluated at commit (integration sources of
			// eliminated loads may complete after this instant pass).
			c.countRex(u)
		}
		u.rexDoneAt = c.cycle
		c.rexHead++
	}
}

// rexExtraLat returns the added re-execution latency for loads whose address
// and value must come from the register file (eliminated loads; paper §4.3:
// a dedicated 2-cycle register read port, address first).
func (c *Core) rexExtraLat(u *uop) uint64 {
	if u.eliminated {
		return 2
	}
	return 0
}

func (c *Core) countRex(u *uop) {
	c.stats.RexLoads++
	c.stats.RexByKind[u.kind]++
}

// rexMismatch reports whether the value the load (or its integration source)
// produced at execute differs from the architecturally correct value. The
// re-executed access itself always returns the correct value — the rex
// pipeline runs in order after all older stores have been applied — so the
// test reduces to comparing the execute-time value against the oracle.
// Matching values (silent stores, false sharing, SSBF aliasing) re-execute
// without consequence, exactly as in the paper.
func (c *Core) rexMismatch(u *uop) bool {
	exec := u.execValue
	if u.eliminated {
		exec = c.integratedValue(u)
	}
	return exec != u.dyn.LoadVal
}

// integratedValue reconstructs the value an eliminated load delivered: the
// current content of its integrated physical register, narrowed and extended
// per the load's width for memory-bypassing integrations.
func (c *Core) integratedValue(u *uop) uint64 {
	v := c.physVal[u.destPhys]
	if u.elimKind == rle.KindBypass {
		if n := u.dyn.MemBytes; n > 0 && n < 8 {
			v &= 1<<(uint(n)*8) - 1
		}
		v = emu.ExtendLoad(u.dyn.Inst, v)
	}
	return v
}

// unretiredLoadOlderThan reports whether any load older than seq is still in
// flight (atomic SSBF policy gate).
func (c *Core) unretiredLoadOlderThan(seq uint64) bool {
	h := c.lq.Head()
	return h != nil && h.Seq < seq
}
