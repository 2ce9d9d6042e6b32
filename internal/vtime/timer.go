package vtime

// Timer is one scheduled deadline in a TimerQueue. The caller owns the
// entry: it may embed it in the payload it schedules and re-arm it once it
// has popped or been removed, so arming a deadline allocates nothing. Data
// carries the caller's payload (e.g. a parked continuation); the queue never
// inspects it. The zero Timer is not pending.
type Timer struct {
	// When is the virtual deadline in nanoseconds.
	When int64
	// seq breaks deadline ties in registration order, so the pop order is
	// a pure function of the Add sequence — the determinism contract.
	seq uint64
	// pos is the timer's current index in the queue's heap array, kept
	// current by every sift so Remove can cancel an entry in O(depth); -1
	// once the timer has been popped or removed.
	pos  int
	Data any
}

// TimerQueue is a deterministic deadline min-heap: entries pop in (When,
// registration-order) order, so two runs that add the same deadlines in the
// same order drain identically. It is a plain data structure with no engine
// coupling — the owner decides when "now" has reached a deadline (for a
// vproc, the engine's ready tree already schedules it at that instant; see
// core.VProc.SleepUntil and the core scheduler's clamped idle charges).
//
// The heap is 4-ary: pops are sift-down dominated and the wider node halves
// the depth; keys are unique so the arity cannot change the pop order.
type TimerQueue struct {
	h   []*Timer
	seq uint64
}

const timerArity = 4

// Len reports the number of pending timers (including entries whose payload
// the owner may since have invalidated — staleness is the owner's concern).
func (q *TimerQueue) Len() int { return len(q.h) }

// Add schedules the caller's entry t at the given deadline and returns it;
// the caller may later cancel it with Remove. t must not be pending. A nil t
// schedules a fresh entry with no payload (benchmark/'s timer probe arms its
// deadlines that way).
func (q *TimerQueue) Add(when int64, t *Timer) *Timer {
	if t == nil {
		t = new(Timer)
	} else if q.pending(t) {
		panic("vtime: Add of a pending timer")
	}
	t.When, t.seq, t.pos = when, q.seq, len(q.h)
	q.seq++
	q.h = append(q.h, t)
	q.siftUp(len(q.h) - 1)
	return t
}

// pending reports whether t is an entry of this queue.
func (q *TimerQueue) pending(t *Timer) bool {
	i := t.pos
	return i >= 0 && i < len(q.h) && q.h[i] == t
}

// siftUp restores the heap order upward from index i.
func (q *TimerQueue) siftUp(i int) {
	h := q.h
	for i > 0 {
		parent := (i - 1) / timerArity
		if !timerLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].pos, h[parent].pos = i, parent
		i = parent
	}
}

// siftDown restores the heap order downward from index i.
func (q *TimerQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	for {
		first := timerArity*i + 1
		if first >= n {
			break
		}
		last := first + timerArity
		if last > n {
			last = n
		}
		min := i
		for c := first; c < last; c++ {
			if timerLess(h[c], h[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		h[i].pos, h[min].pos = i, min
		i = min
	}
}

// Remove cancels a pending timer: the entry leaves the queue immediately, so
// a retired deadline (e.g. a timeout whose reply won) no longer clamps idle
// charges or occupies heap space. Reports false — without touching the queue
// — if the timer is not pending here (already popped or removed). Removal
// does not perturb the (When, seq) order of the remaining entries, so it is
// as deterministic as the pops.
func (q *TimerQueue) Remove(t *Timer) bool {
	if !q.pending(t) {
		return false
	}
	i, n := t.pos, len(q.h)-1
	q.h[i] = q.h[n]
	q.h[i].pos = i
	q.h[n] = nil
	q.h = q.h[:n]
	t.pos = -1
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
	return true
}

// timerLess orders timers by (When, seq); keys are unique.
func timerLess(a, b *Timer) bool {
	return a.When < b.When || (a.When == b.When && a.seq < b.seq)
}

// NextDeadline returns the earliest pending deadline.
func (q *TimerQueue) NextDeadline() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].When, true
}

// PopDue removes and returns the earliest timer whose deadline has been
// reached (When <= now), or nil if none is due.
func (q *TimerQueue) PopDue(now int64) *Timer {
	if len(q.h) == 0 || q.h[0].When > now {
		return nil
	}
	return q.pop()
}

// pop removes the minimum entry.
func (q *TimerQueue) pop() *Timer {
	h := q.h
	t := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].pos = 0
	h[n] = nil
	q.h = h[:n]
	t.pos = -1
	if n > 0 {
		q.siftDown(0)
	}
	return t
}
