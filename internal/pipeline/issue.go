package pipeline

import (
	"math/bits"

	"svwsim/internal/core"
	"svwsim/internal/emu"
	"svwsim/internal/isa"
	"svwsim/internal/lsq"
)

// Issue/execute: oldest-first select over the ready set under per-class
// port limits; loads run the active LSU design's forwarding/disambiguation
// logic, observing speculative memory state.

type issuePorts struct {
	total  int
	intOps int
	loads  int
	stores int
	brs    int
	banks  []bool // D$ bank busy (core-owned scratch, cleared per cycle)
	fsq    bool   // FSQ search port busy (1/cycle)
}

// issue is the select half of the scheduler (sched.go): it brings the
// ready set up to this cycle, tries its members oldest-first until
// TotalIssue uops have issued, and charges the parked loads' failed retries.
func (c *Core) issue() {
	c.sweep()
	if c.storeMoved {
		c.storeMoved = false
		c.unparkReleased()
	}
	// Most cycles find the ready set empty; only the parked loads' retries
	// are charged then, all of them reached. A cycle that tries a member is
	// never idle: whatever the outcome, a member that stays in ready is
	// tried again next cycle.
	cutoff := c.rob.count
	if c.readyN > 0 {
		c.worked = true
		cutoff = c.selectReady()
	}
	if c.nParkedSS+c.nParkedCmt > 0 {
		c.countParked(cutoff)
	}
}

// selectReady walks the ready set oldest-first and tries each member under
// the per-class port limits. It returns how many ROB entries, from the
// head, the walk reached with a load port still free: the parked loads
// among them are the retries that fail this cycle.
func (c *Core) selectReady() (cutoff int) {
	buf, head, mask, count := c.rob.buf, c.rob.head, c.rob.mask, c.rob.count
	cutoff = count
	for i := range c.bankBusy {
		c.bankBusy[i] = false
	}
	ports := issuePorts{banks: c.bankBusy}
	ready, width := c.ready, c.cfg.TotalIssue
	kept := 0 // members tried this cycle that stay in ready
	for off := 0; off < count && ports.total < width && c.readyN > kept; off++ {
		slot := (head + off) & mask
		// The word is re-read every step: an issue may wake a consumer
		// into a younger slot of it.
		w := ready[slot>>6] >> (slot & 63)
		if w == 0 {
			// Nothing left in this word (or in a ring shorter than one).
			off += min(64-(slot&63), len(buf)-slot) - 1
			continue
		}
		off += bits.TrailingZeros64(w)
		if off >= count {
			break
		}
		slot = (head + off) & mask
		u := &buf[slot]
		ok := false
		switch u.class {
		case isa.ClassIntALU:
			ok = c.tryIssueALU(u, &ports, 1)
		case isa.ClassIntMul:
			ok = c.tryIssueALU(u, &ports, c.cfg.MulLat)
		case isa.ClassBranch:
			ok = c.tryIssueBranch(u, &ports)
		case isa.ClassLoad:
			ok = c.tryIssueLoad(u, &ports)
		case isa.ClassStore:
			ok = c.tryIssueStore(u, &ports)
		}
		if ok {
			ports.total++
			c.takeReady(slot)
			c.iqCount--
			if ports.total >= width || ports.loads >= c.cfg.LoadIssue {
				cutoff = min(cutoff, off)
			}
		} else if ready.has(slot) {
			kept++ // not parked either
		}
	}
	return cutoff
}

func (c *Core) startOp(u *uop, completeAt uint64) {
	u.issued = true
	u.issueC = c.cycle
	u.completeC = completeAt
	if u.destPhys != noPhys {
		c.readyAt[u.destPhys] = completeAt
		c.wakeConsumers(u.destPhys, completeAt)
	}
	c.scheduleEvent(completeAt, u)
}

func (c *Core) tryIssueALU(u *uop, p *issuePorts, lat int) bool {
	if p.intOps >= c.cfg.IntIssue {
		return false
	}
	p.intOps++
	c.startOp(u, c.cycle+uint64(c.cfg.RegReadDepth)+uint64(lat))
	return true
}

func (c *Core) tryIssueBranch(u *uop, p *issuePorts) bool {
	if p.brs >= c.cfg.BranchIssue {
		return false
	}
	p.brs++
	c.startOp(u, c.cycle+uint64(c.cfg.RegReadDepth)+1)
	return true
}

// tryIssueStore issues a store's address generation (STA). The data half
// (STD) completes independently when the data register arrives; the store
// counts as executed only when both halves are done.
func (c *Core) tryIssueStore(u *uop, p *issuePorts) bool {
	if p.stores >= c.cfg.StoreIssue {
		return false
	}
	if u.waiting == waitStoreExec && c.storeStillPending(u.waitSeq) {
		return false // intra-store-set serialization
	}
	u.waiting = waitNothing
	p.stores++
	u.issued = true
	u.issueC = c.cycle
	u.completeC = c.cycle + uint64(c.cfg.RegReadDepth) + 1 // STA resolution
	// Publish the address with its visibility time — the AGU output
	// broadcasts to the disambiguation logic as it is produced, so a load
	// executing in the same cycle a store's address generation finishes
	// sees it. If the data register is already scheduled, its arrival time
	// is known too (STD completes with the STA); otherwise the data half
	// finishes when the producer does.
	d := u.dyn
	addrAt := c.cycle + uint64(c.cfg.RegReadDepth)
	dataAt := ^uint64(0)
	if r := c.readyAt[u.srcPhys[1]]; r != ^uint64(0) {
		dataAt = u.completeC
		if r > dataAt {
			dataAt = r
		}
	}
	if rec := c.sq.Find(u.seq); rec != nil {
		rec.Addr, rec.Size, rec.AddrKnownAt = d.EffAddr, d.MemBytes, addrAt
		rec.Data, rec.DataKnownAt = d.StoreVal, dataAt
	}
	if u.inFSQ {
		if rec := c.fsq.Find(u.seq); rec != nil {
			rec.Addr, rec.Size, rec.AddrKnownAt = d.EffAddr, d.MemBytes, addrAt
			rec.Data, rec.DataKnownAt = d.StoreVal, dataAt
		}
	}
	c.scheduleEvent(u.completeC, u)
	return true
}

// storeStillPending reports whether the store with seq is in flight and has
// not yet executed.
func (c *Core) storeStillPending(seq uint64) bool {
	w := c.uopAt(seq)
	return w != nil && !w.completed
}

// storeStillInFlight reports whether the store with seq has not committed.
func (c *Core) storeStillInFlight(seq uint64) bool {
	return c.uopAt(seq) != nil
}

func (c *Core) tryIssueLoad(u *uop, p *issuePorts) bool {
	if p.loads >= c.cfg.LoadIssue {
		return false
	}
	switch u.waiting {
	case waitStoreExec:
		if c.storeStillPending(u.waitSeq) {
			c.park(u) // countParked charges LoadWaitSS
			return false
		}
		u.waiting = waitNothing
	case waitStoreCommit:
		if c.storeStillInFlight(u.waitSeq) {
			c.park(u) // countParked charges LoadWaitCommit
			return false
		}
		u.waiting = waitNothing
	}

	d := u.dyn
	bank := c.hier.DCache.Bank(d.EffAddr, c.cfg.DBanks)
	if p.banks[bank] {
		return false // bank conflict: retry next cycle
	}
	steered := c.cfg.LSU == LSUSSQ && c.steer.LoadSteered(d.PC)
	if steered && p.fsq {
		return false // single FSQ search port
	}

	execStart := c.cycle + uint64(c.cfg.RegReadDepth)
	var completeAt uint64
	switch c.cfg.LSU {
	case LSUBaseline, LSUNLQ:
		res := c.sq.Search(u.seq, d.EffAddr, d.MemBytes, execStart)
		u.ambiguous = res.AmbiguousOlder
		switch res.Kind {
		case lsq.SearchPartial:
			u.waitSeq, u.waiting = res.StoreSeq, waitStoreCommit
			c.stats.LoadWaitCommit++
			return false
		case lsq.SearchDataWait:
			u.waitSeq, u.waiting = res.StoreSeq, waitStoreExec
			c.stats.LoadWaitData++
			return false
		case lsq.SearchForward:
			u.execValue = emu.ExtendLoad(d.Inst, res.Value)
			u.fwdSeq, u.fwdOK = res.StoreSeq, true
			c.stats.SQForwards++
			completeAt = execStart + uint64(c.cfg.LoadLat)
			if c.cfg.SVW.Enabled && c.cfg.SVW.UpdateOnForward {
				u.svw = core.ForwardSVW(u.svw, res.StoreSSN)
			}
		default: // miss: read the committed image through the cache
			u.execValue = c.readSpecMem(d)
			completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
		}
		if c.cfg.LSU == LSUNLQ && c.cfg.Rex != RexNone && u.ambiguous {
			// NLQls natural filter: issued past unresolved store addresses.
			u.marked = true
			u.kind = markNLQSpec
		}

	case LSUSSQ:
		if steered {
			p.fsq = true
			u.kind = markSSQFSQ
			res := c.fsq.Search(u.seq, d.EffAddr, d.MemBytes, execStart)
			switch res.Kind {
			case lsq.SearchPartial:
				u.waitSeq, u.waiting = res.StoreSeq, waitStoreCommit
				return false
			case lsq.SearchDataWait:
				u.waitSeq, u.waiting = res.StoreSeq, waitStoreExec
				return false
			case lsq.SearchForward:
				u.execValue = emu.ExtendLoad(d.Inst, res.Value)
				u.fwdSeq, u.fwdOK = res.StoreSeq, true
				c.stats.SQForwards++
				completeAt = execStart + uint64(c.cfg.LoadLat)
				if c.cfg.SVW.Enabled && c.cfg.SVW.UpdateOnForward {
					// Only FSQ forwarding maintains the invariants the
					// update requires (§4.2); best-effort does not.
					u.svw = core.ForwardSVW(u.svw, res.StoreSSN)
				}
			default:
				u.execValue = c.readSpecMem(d)
				completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
			}
		} else {
			if data, seq, ok := c.fbs[bank].Probe(u.seq, d.EffAddr, d.MemBytes); ok {
				u.execValue = emu.ExtendLoad(d.Inst, data)
				u.fwdSeq, u.fwdOK = seq, true
				u.usedBest = true
				completeAt = execStart + uint64(c.cfg.LoadLat)
			} else {
				u.execValue = c.readSpecMem(d)
				completeAt = c.cacheLoadComplete(d.EffAddr, execStart)
			}
		}
	}

	p.banks[bank] = true
	p.loads++

	// Update the LQ view for the conventional ordering search.
	rec := c.lq.At(u.lqIdx)
	rec.Issued = true
	rec.FwdSeq, rec.FwdOK = u.fwdSeq, u.fwdOK
	c.startOp(u, completeAt)
	return true
}

// readSpecMem returns the load value visible in committed memory right now —
// the value a load observes when no forwarding path covers it. If an older
// uncommitted store to the address exists, this value is stale and the load
// has mis-speculated.
func (c *Core) readSpecMem(d *emu.DynInst) uint64 {
	raw := c.commitMem.Read(d.EffAddr, d.MemBytes)
	return emu.ExtendLoad(d.Inst, raw)
}

// cacheLoadComplete models the D$ access timing for a load starting its
// access at execStart.
func (c *Core) cacheLoadComplete(addr uint64, execStart uint64) uint64 {
	done := c.hier.DCache.Access(addr, execStart)
	min := execStart + uint64(c.cfg.LoadLat)
	if done < min {
		done = min
	}
	return done
}
