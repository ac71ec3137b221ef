package pipeline

// Writeback: process this cycle's completion events — publish values, mark
// stores' addresses/data known, run the conventional LQ ordering search, and
// resolve branches.

func (c *Core) writeback() {
	defer c.scanPendingSTD()
	evs := c.events.take(c.cycle)
	if evs == nil {
		return
	}
	c.worked = true
	// Process the whole batch even if a violation flush is requested
	// mid-way: events for instructions older than the flush point must not
	// be lost, and state published for about-to-be-squashed instructions is
	// reclaimed by the flush itself.
	for _, ev := range evs {
		u := c.uopAt(ev.seq)
		if u == nil || u.uid != ev.uid {
			continue // the instance this event belonged to was squashed
		}
		if u.isStore() {
			c.storeAddrResolved(u)
			continue
		}
		u.completed = true
		if u.destPhys != noPhys {
			v := u.dyn.Result
			if u.isLoad() {
				v = u.execValue // possibly stale; that is the point
			}
			c.setPhysValue(u.destPhys, v, u.completeC)
		}
		if u.isBranch() && u.mispredict && c.waitBranchSeq == u.seq {
			c.waitBranchSeq = ^uint64(0)
			c.fetchStallTil = u.completeC + 1
		}
	}
}

// scanPendingSTD completes the data half of stores whose address has
// resolved but whose data register was still in flight. It walks the list
// only in cycles where some STD can be due: stdDue holds the earliest known
// data arrival, lowered by storeAddrResolved and by the data register's
// wakeup (sched.go).
func (c *Core) scanPendingSTD() {
	if c.cycle < c.stdDue {
		return
	}
	next := ^uint64(0)
	out := c.pendingSTD[:0]
	for _, ev := range c.pendingSTD {
		u := c.uopAt(ev.seq)
		if u == nil || u.uid != ev.uid {
			continue // squashed
		}
		at := c.readyAt[u.srcPhys[1]]
		if at <= c.cycle {
			c.storeDataReady(u)
			continue
		}
		next = min(next, at)
		out = append(out, ev)
	}
	c.pendingSTD = out
	c.stdDue = next
}

// storeAddrResolved fires at STA resolution (the address was published to
// the queues at issue, stamped with this cycle): on machines with an
// associative LQ the store searches for premature younger loads. If the
// data register has already arrived, the data half completes in the same
// cycle.
func (c *Core) storeAddrResolved(u *uop) {
	d := u.dyn
	u.addrKnown = true
	if c.cfg.LQSearch {
		if ld, found := c.lq.SearchPremature(u.seq, d.EffAddr, d.MemBytes); found {
			// Conventional intra-thread ordering violation: flush the load
			// and everything younger; train store-sets with the exact pair.
			// Several stores can fire in one cycle; the oldest flush wins.
			c.stats.OrderingViolations++
			c.ss.Train(ld.PC, d.PC)
			c.requestFlush(ld.Seq - 1)
		}
	}
	at := c.readyAt[u.srcPhys[1]]
	if at <= c.cycle {
		c.storeDataReady(u)
		return
	}
	c.pendingSTD = append(c.pendingSTD, eventRec{seq: u.seq, uid: u.uid})
	c.stdDue = min(c.stdDue, at)
}

// storeDataReady completes a store's data half (STD): the forwarding value
// becomes available, the store counts as executed, and store-set waiters are
// released.
func (c *Core) storeDataReady(u *uop) {
	d := u.dyn
	u.completed = true
	c.storeMoved = true
	c.worked = true
	if c.cycle > u.completeC {
		u.completeC = c.cycle
	}
	if rec := c.sq.Find(u.seq); rec != nil {
		rec.Data = d.StoreVal
		if rec.DataKnownAt > c.cycle {
			rec.DataKnownAt = c.cycle
		}
	}
	if u.inFSQ {
		if rec := c.fsq.Find(u.seq); rec != nil {
			rec.Data = d.StoreVal
			if rec.DataKnownAt > c.cycle {
				rec.DataKnownAt = c.cycle
			}
		}
	}
	if c.cfg.LSU == LSUSSQ {
		bank := c.hier.DCache.Bank(d.EffAddr, c.cfg.DBanks)
		c.fbs[bank].Insert(d.EffAddr, d.MemBytes, d.StoreVal, u.seq)
	}
	c.ss.StoreExecuted(u.ssSet, u.seq)
}
