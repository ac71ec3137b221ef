package lsq

// LoadRec is the view of an in-flight load the load queue needs.
type LoadRec struct {
	Seq  uint64
	PC   uint64
	Addr uint64
	Size int
	// Issued is true once the load has read memory (its address is known
	// and a value has been obtained).
	Issued bool
	// FwdSeq is the sequence number of the store the load forwarded from;
	// FwdOK false means the load read the cache.
	FwdSeq uint64
	FwdOK  bool
	// Eliminated loads occupy LQ slots but carry no address/value; the
	// conventional store search cannot check them (paper §2.4).
	Eliminated bool
}

// LoadQueue is the age-ordered queue of in-flight loads. In the conventional
// design executing stores search it associatively for premature younger
// loads; the NLQ deletes that search. Like StoreQueue, it is a
// fixed-capacity power-of-two ring: no queue operation allocates.
type LoadQueue struct {
	buf  []LoadRec
	head int
	n    int
	cap  int
	mask int
}

// NewLoadQueue returns a queue holding at most capacity loads.
func NewLoadQueue(capacity int) *LoadQueue {
	sz := RingSize(capacity)
	return &LoadQueue{buf: make([]LoadRec, sz), cap: capacity, mask: sz - 1}
}

// Reset empties the queue, retaining the ring allocation.
func (q *LoadQueue) Reset() { q.head, q.n = 0, 0 }

// at returns the i-th oldest entry (0 = head). Callers bound i by Len.
func (q *LoadQueue) at(i int) *LoadRec { return &q.buf[(q.head+i)&q.mask] }

// Len returns occupancy; Cap capacity; Full whether allocation would overflow.
func (q *LoadQueue) Len() int   { return q.n }
func (q *LoadQueue) Cap() int   { return q.cap }
func (q *LoadQueue) Full() bool { return q.n >= q.cap }

// Push allocates at the tail (dispatch order) and returns the entry's ring
// index, which stays its index until it is popped or squashed (see At).
func (q *LoadQueue) Push(rec LoadRec) int {
	if q.Full() {
		panic("lsq: load queue overflow")
	}
	if q.n > 0 && q.at(q.n-1).Seq >= rec.Seq {
		panic("lsq: load queue push out of order")
	}
	idx := (q.head + q.n) & q.mask
	q.n++
	q.buf[idx] = rec
	return idx
}

// At returns the entry at a ring index Push returned; valid while that
// entry is in the queue.
func (q *LoadQueue) At(idx int) *LoadRec { return &q.buf[idx] }

// Find returns the entry with the given seq, or nil.
func (q *LoadQueue) Find(seq uint64) *LoadRec {
	for i := 0; i < q.n; i++ {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// PopHead removes the oldest entry (load commit).
func (q *LoadQueue) PopHead() LoadRec {
	if q.n == 0 {
		panic("lsq: pop from empty load queue")
	}
	rec := *q.at(0)
	q.head = (q.head + 1) & q.mask
	q.n--
	return rec
}

// Head returns the oldest entry, or nil.
func (q *LoadQueue) Head() *LoadRec {
	if q.n == 0 {
		return nil
	}
	return q.at(0)
}

// SquashYoungerOrEqual removes entries with Seq >= seq and returns the count.
func (q *LoadQueue) SquashYoungerOrEqual(seq uint64) int {
	n := q.n
	for n > 0 && q.at(n-1).Seq >= seq {
		n--
	}
	removed := q.n - n
	q.n = n
	return removed
}

// SearchPremature implements the conventional intra-thread ordering check: a
// store that has just resolved its address scans younger issued loads for
// overlap. A load is premature if it read memory without forwarding from
// this store or anything younger — i.e. it observed pre-store memory even
// though the store precedes it. The oldest premature load is returned
// (flush point).
func (q *LoadQueue) SearchPremature(storeSeq, addr uint64, size int) (LoadRec, bool) {
	for i := 0; i < q.n; i++ {
		ld := q.at(i)
		if ld.Seq <= storeSeq || !ld.Issued || ld.Eliminated {
			continue
		}
		tmp := StoreRec{Addr: addr, Size: size}
		if !tmp.Overlaps(ld.Addr, ld.Size) {
			continue
		}
		if ld.FwdOK && ld.FwdSeq > storeSeq {
			continue // correctly forwarded from a younger-than-store store
		}
		return *ld, true
	}
	return LoadRec{}, false
}
