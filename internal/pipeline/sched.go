package pipeline

import "math/bits"

// Wakeup/select scheduling, after Palacharla, Jouppi and Smith,
// "Complexity-Effective Superscalar Processors" (ISCA 1997). The issue
// queue is never polled:
//
//   - Wakeup. readyAt[p] stays ^0 until p's producer issues; startOp then
//     sets it and walks p's consumer list. Each consumer listed there has
//     one source fewer pending, and its wake cycle rises to the value's
//     arrival minus the register-read depth (full bypassing).
//   - Select. A uop with no pending source and a wake cycle already reached
//     is a member of the ready set, a bitset over ROB slots, so walking it
//     from the ROB head is oldest-first. issue walks only that set and tries
//     each member until TotalIssue uops have issued; a member blocked on a
//     D$ bank, the FSQ port or an issue port stays and is tried next cycle.
//     A uop whose wake cycle is still ahead waits in the bucket of a wheel
//     of per-cycle bitsets (or, beyond the wheel's reach, in a far set),
//     and sweep merges each cycle's bucket into the ready set before
//     select.
//   - Park. A load blocked on an older store (a store-set wait or a partial
//     overlap) would fail its retry every cycle until that store executes
//     or commits, each failure only bumping LoadWaitSS or LoadWaitCommit.
//     Such a load leaves the ready set for a parked set instead. issue
//     counts the parked loads its walk reaches with a load port free --
//     exactly the retries that would have failed -- and, in a cycle after
//     some store executed or committed, returns to the ready set every
//     parked load whose store no longer blocks it.
//   - Flush. squashUop takes a squashed uop out of the occupancy count and
//     of whichever set holds it, and zeroes its slot's uid. List nodes
//     carry (slot, uid), so a node naming a squashed uop is stale; it is
//     dropped when walked or when allocPhys recycles its register.
//
// A store's data half (STD) waits on the same lists: a store whose data
// register is in flight hangs a data node on it, and the wakeup tells
// scanPendingSTD when the data can arrive.

// sched is the scheduler's state, embedded in Core.
type sched struct {
	iqCount int // IQ occupancy: dispatched, un-issued uops

	// Wakeup: per-register consumer lists, pooled in one slab, and per ROB
	// slot the dispatched uop's uid (0 once squashed) and its count of
	// sources whose producer has not issued. Wakeup reads these dense
	// arrays instead of the uops.
	consHead []int32    // per phys reg: head of its consumer list, or -1
	cons     []consNode // the slab
	consFree int32      // head of the slab's free list, or -1
	slotUID  []uint64
	pending  []uint8

	// Select. An un-issued uop with no pending source is in exactly one of
	// ready, a wheel bucket, far, parkedSS and parkedCmt.
	wakeAt []uint64  // per ROB slot: first cycle the uop may be selected
	ready  slotSet   // selectable this cycle
	readyN int       // members of ready
	wheel  []slotSet // bucket k: wake cycle ≡ k (mod wheelSlots)
	// wheelWords[k] bit j set: bucket k may have members in words j,
	// j+64, j+128, ...; wheelOcc bit k set: wheelWords[k] != 0.
	wheelWords [wheelSlots]uint64
	wheelOcc   uint64
	far        slotSet // wake cycle beyond the wheel's reach
	farMin     uint64  // earliest wake cycle in far; ^0 when far is empty
	swept      uint64  // last cycle whose bucket has joined ready

	// Parked loads by wait kind, how many each set holds, and whether a
	// store has executed or committed since issue last looked at them.
	parkedSS, parkedCmt   slotSet
	nParkedSS, nParkedCmt int
	storeMoved            bool

	stdDue uint64 // earliest cycle a pending STD can complete; ^0 = none known
}

// wheelSlots is how many cycles ahead the wheel reaches: past an L2 hit, so
// only consumers of memory misses land in far.
const wheelSlots = 64

// slotSet is a bitset over ROB slots.
type slotSet []uint64

func (s slotSet) add(slot int) { s[slot>>6] |= 1 << (slot & 63) }

func (s slotSet) has(slot int) bool { return s[slot>>6]&(1<<(slot&63)) != 0 }

// remove clears slot and reports whether it was set.
func (s slotSet) remove(slot int) bool {
	had := s.has(slot)
	s[slot>>6] &^= 1 << (slot & 63)
	return had
}

// consNode is one consumer-list entry. It names the consumer by ROB slot
// and uid: the node is stale, its consumer squashed, unless slotUID still
// holds that uid.
type consNode struct {
	uid  uint64
	slot int32
	next int32 // next node in the register's list, or -1
	std  bool  // a store waiting for its data, not an issue source
}

// dispatch enters a renamed uop into the scheduler: it counts toward IQ
// occupancy, registers on the consumer list of each issue source whose
// producer has not issued, and is enqueued if there is none.
func (c *Core) dispatch(u *uop) {
	c.iqCount++
	slot := c.rob.slot(u.seq)
	c.slotUID[slot] = u.uid
	c.pending[slot] = 0
	c.wakeAt[slot] = c.cycle + uint64(c.cfg.SchedDepth)
	n := u.nsrc
	if u.isStore() {
		// Stores issue their address generation on the base register
		// alone (split STA/STD); the data register is watched for the STD.
		n = 1
		if p := u.srcPhys[1]; c.readyAt[p] == ^uint64(0) {
			c.addConsumer(p, slot, u.uid, true)
		}
	}
	for i := 0; i < n; i++ {
		p := u.srcPhys[i]
		if at := c.readyAt[p]; at != ^uint64(0) {
			c.raiseWake(slot, at)
			continue
		}
		c.addConsumer(p, slot, u.uid, false)
		c.pending[slot]++
	}
	if c.pending[slot] == 0 {
		c.enqueue(slot)
	}
}

// raiseWake applies the wakeup rule for one source arriving at cycle at: a
// consumer may issue at cycle t if the value arrives by its execute start,
// t + RegReadDepth.
func (c *Core) raiseWake(slot int, at uint64) {
	if rrd := uint64(c.cfg.RegReadDepth); at > rrd && at-rrd > c.wakeAt[slot] {
		c.wakeAt[slot] = at - rrd
	}
}

// wakeConsumers runs when p's producer issues with its value arriving at
// cycle at: every listed consumer still in flight is told, and the list is
// returned to the pool.
func (c *Core) wakeConsumers(p int, at uint64) {
	i := c.consHead[p]
	c.consHead[p] = -1
	for i >= 0 {
		n := c.cons[i]
		c.cons[i].next = c.consFree
		c.consFree = i
		i = n.next
		slot := int(n.slot)
		if c.slotUID[slot] != n.uid {
			continue // the consumer was squashed
		}
		if n.std {
			// Before address resolution storeAddrResolved reads readyAt
			// itself; after it, the pending STD learns its due cycle here.
			if u := &c.rob.buf[slot]; u.addrKnown && !u.completed && at < c.stdDue {
				c.stdDue = at
			}
			continue
		}
		c.raiseWake(slot, at)
		c.pending[slot]--
		if c.pending[slot] == 0 {
			c.enqueue(slot)
		}
	}
}

// addConsumer hangs the uop in slot on p's consumer list.
func (c *Core) addConsumer(p, slot int, uid uint64, std bool) {
	n := consNode{uid: uid, slot: int32(slot), next: c.consHead[p], std: std}
	i := c.consFree
	if i >= 0 {
		c.consFree = c.cons[i].next
		c.cons[i] = n
	} else {
		i = int32(len(c.cons))
		c.cons = append(c.cons, n)
	}
	c.consHead[p] = i
}

// dropConsumers returns p's list to the pool without waking anyone. It runs
// when allocPhys recycles p: a freed register has no live consumer, so any
// node left names a uop squashed before p's producer issued.
func (c *Core) dropConsumers(p int) {
	for i := c.consHead[p]; i >= 0; {
		next := c.cons[i].next
		c.cons[i].next = c.consFree
		c.consFree = i
		i = next
	}
	c.consHead[p] = -1
}

// enqueue places a uop whose sources are all scheduled: in ready if its
// wake cycle has been swept, else in its wake cycle's wheel bucket, or in
// far when that lies beyond the wheel.
func (c *Core) enqueue(slot int) {
	switch wake := c.wakeAt[slot]; {
	case wake <= c.swept:
		c.addReady(slot)
	case wake-c.swept < wheelSlots:
		k := wake % wheelSlots
		c.wheel[k].add(slot)
		c.wheelWords[k] |= 1 << (slot >> 6 & 63)
		c.wheelOcc |= 1 << k
	default:
		c.far.add(slot)
		c.farMin = min(c.farMin, wake)
	}
}

func (c *Core) addReady(slot int) {
	c.ready.add(slot)
	c.readyN++
}

func (c *Core) takeReady(slot int) {
	if c.ready.remove(slot) {
		c.readyN--
	}
}

// sweep brings ready up to the current cycle: the bucket of every cycle
// since the last sweep joins it, and so do the far members now due. It
// visits occupied buckets only, so a clock that jumped over idle cycles
// costs nothing extra.
func (c *Core) sweep() {
	for c.swept < c.cycle {
		next := c.nextWheelCycle()
		if next > c.cycle {
			c.swept = c.cycle
			break
		}
		c.swept = next
		c.mergeBucket(next % wheelSlots)
	}
	if c.farMin <= c.cycle {
		c.sweepFar()
	}
}

// nextWheelCycle returns the earliest cycle after swept whose wheel bucket
// may have members, or ^0 when every bucket is empty. Bucket k holds the
// wake cycle in (swept, swept+wheelSlots) congruent to k.
func (c *Core) nextWheelCycle() uint64 {
	if c.wheelOcc == 0 {
		return ^uint64(0)
	}
	from := c.swept + 1
	return from + uint64(bits.TrailingZeros64(bits.RotateLeft64(c.wheelOcc, -int(from%wheelSlots))))
}

func (c *Core) mergeBucket(k uint64) {
	bucket := c.wheel[k]
	for m := c.wheelWords[k]; m != 0; m &= m - 1 {
		for i := bits.TrailingZeros64(m); i < len(bucket); i += 64 {
			c.ready[i] |= bucket[i]
			c.readyN += bits.OnesCount64(bucket[i])
			bucket[i] = 0
		}
	}
	c.wheelWords[k] = 0
	c.wheelOcc &^= 1 << k
}

func (c *Core) sweepFar() {
	c.farMin = ^uint64(0)
	for i, w := range c.far {
		for ; w != 0; w &= w - 1 {
			slot := i<<6 | bits.TrailingZeros64(w)
			if wake := c.wakeAt[slot]; wake > c.cycle {
				c.farMin = min(c.farMin, wake)
				continue
			}
			c.far.remove(slot)
			c.addReady(slot)
		}
	}
}

// unschedule takes a squashed uop out of the scheduler: its list nodes go
// stale and, if it had not issued, it leaves the IQ count and whichever set
// holds it. Only one uop holds a slot, so clearing the bit elsewhere is
// harmless.
func (c *Core) unschedule(u *uop) {
	slot := c.rob.slot(u.seq)
	c.slotUID[slot] = 0
	if u.issued || u.completed {
		return
	}
	c.iqCount--
	c.takeReady(slot)
	c.wheel[c.wakeAt[slot]%wheelSlots].remove(slot)
	c.far.remove(slot)
	if c.parkedSS.remove(slot) {
		c.nParkedSS--
	}
	if c.parkedCmt.remove(slot) {
		c.nParkedCmt--
	}
}

// park moves a load blocked on an older store from ready to the parked set
// of its wait kind.
func (c *Core) park(u *uop) {
	slot := c.rob.slot(u.seq)
	c.takeReady(slot)
	if u.waiting == waitStoreExec {
		c.parkedSS.add(slot)
		c.nParkedSS++
	} else {
		c.parkedCmt.add(slot)
		c.nParkedCmt++
	}
}

// unparkReleased returns to ready every parked load whose store has
// executed (store-set waits) or committed (partial overlaps).
func (c *Core) unparkReleased() {
	if c.nParkedSS > 0 {
		c.nParkedSS -= c.unpark(c.parkedSS, c.storeStillPending)
	}
	if c.nParkedCmt > 0 {
		c.nParkedCmt -= c.unpark(c.parkedCmt, c.storeStillInFlight)
	}
}

// unpark moves the members of set whose store no longer blocks them to
// ready, and reports how many moved.
func (c *Core) unpark(set slotSet, blocked func(seq uint64) bool) int {
	n := 0
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			slot := i<<6 | bits.TrailingZeros64(w)
			if blocked(c.rob.buf[slot].waitSeq) {
				continue
			}
			set.remove(slot)
			c.addReady(slot)
			n++
		}
	}
	return n
}

// countParked charges this cycle's failed retries: the parked loads among
// the first cutoff ROB entries.
func (c *Core) countParked(cutoff int) {
	if cutoff >= c.rob.count {
		c.stats.LoadWaitSS += uint64(c.nParkedSS)
		c.stats.LoadWaitCommit += uint64(c.nParkedCmt)
		return
	}
	head, size := c.rob.head, len(c.rob.buf)
	c.stats.LoadWaitSS += c.parkedSS.ringCount(head, cutoff, size)
	c.stats.LoadWaitCommit += c.parkedCmt.ringCount(head, cutoff, size)
}

// ringCount counts the members among the n slots from head of a ring of
// size slots.
func (s slotSet) ringCount(head, n, size int) uint64 {
	var total int
	for n > 0 {
		k := min(n, 64-(head&63), size-head) // one word, no wrap
		w := s[head>>6] >> (head & 63)
		if k < 64 {
			w &= 1<<k - 1
		}
		total += bits.OnesCount64(w)
		n -= k
		head = (head + k) & (size - 1)
	}
	return uint64(total)
}

// resetSched empties the scheduler for a fresh run, reusing old's arrays
// where their sizes still fit.
func (c *Core) resetSched(old *sched) {
	words := (len(c.rob.buf) + 63) / 64
	c.wakeAt = resizeU64s(old.wakeAt, len(c.rob.buf))
	c.slotUID = resizeU64s(old.slotUID, len(c.rob.buf))
	c.pending = old.pending
	if len(c.pending) != len(c.rob.buf) {
		c.pending = make([]uint8, len(c.rob.buf))
	}
	c.ready = resizeU64s(old.ready, words)
	c.far = resizeU64s(old.far, words)
	c.parkedSS = resizeU64s(old.parkedSS, words)
	c.parkedCmt = resizeU64s(old.parkedCmt, words)
	c.wheel = old.wheel
	if len(c.wheel) == 0 || len(c.wheel[0]) != words {
		flat := make([]uint64, wheelSlots*words)
		c.wheel = make([]slotSet, wheelSlots)
		for k := range c.wheel {
			c.wheel[k] = flat[k*words : (k+1)*words : (k+1)*words]
		}
	}
	for _, b := range c.wheel {
		clear(b)
	}
	c.farMin = ^uint64(0)
	c.consHead = old.consHead
	if len(c.consHead) != c.cfg.PhysRegs {
		c.consHead = make([]int32, c.cfg.PhysRegs)
	}
	for i := range c.consHead {
		c.consHead[i] = -1
	}
	c.cons = old.cons[:0]
	c.consFree = -1
	c.stdDue = ^uint64(0)
}
