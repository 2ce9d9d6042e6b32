package vtime

// Barrier synchronizes a fixed set of procs in virtual time. All arrivals
// block until the last proc arrives; every participant then resumes with its
// clock advanced to the latest arrival time plus SyncCost, modelling the
// synchronization traffic of a stop-the-world rendezvous.
//
// Arrive is always executed by the current token holder, so like the engine
// itself the barrier needs no locking: early arrivers park through the
// engine's release path, and the last arriver re-inserts all of them into
// the ready tree before continuing.
type Barrier struct {
	n        int
	SyncCost int64

	waiting []*Proc
	maxT    int64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int, syncCost int64) *Barrier {
	if n <= 0 {
		panic("vtime: barrier needs at least one participant")
	}
	return &Barrier{n: n, SyncCost: syncCost}
}

// Arrive enters the barrier. The last arriver releases everyone (including
// itself) at max(arrival clocks) + SyncCost.
func (b *Barrier) Arrive(p *Proc) {
	e := p.eng
	if p.clock > b.maxT {
		b.maxT = p.clock
	}
	if len(b.waiting)+1 < b.n {
		b.waiting = append(b.waiting, p)
		p.state = Blocked
		p.yieldTo(e.dispatch())
		return
	}
	// Last arriver: release all waiters at the synchronized time. The last
	// arriver keeps the token; the min-clock rule will schedule the
	// released procs at its next Advance.
	p.clock = b.release(e)
}

// release readies every waiter at max(arrival clocks) + SyncCost, resets the
// barrier and returns that instant.
func (b *Barrier) release(e *Engine) int64 {
	t := b.maxT + b.SyncCost
	for _, q := range b.waiting {
		q.clock = t
		q.state = Ready
		// Each push lowers the horizon to the released proc's key if it
		// is the new minimum, before the releaser runs on.
		e.push(q)
	}
	b.waiting = b.waiting[:0]
	b.maxT = 0
	return t
}

// Drop removes one expected participant — a proc that will never arrive
// again (it crashed). The dropper must be the current token holder and must
// not itself be parked in the barrier. If the shrunken count is already
// satisfied by the parked waiters, they are released exactly as the last
// arriver would have released them: at max(arrival clocks) + SyncCost. The
// dropper's own clock does not advance — it is leaving the rendezvous, not
// joining it.
func (b *Barrier) Drop(p *Proc) {
	if b.n <= 0 {
		panic("vtime: barrier drop below zero participants")
	}
	b.n--
	if len(b.waiting) == 0 {
		if b.n == 0 {
			b.maxT = 0
		}
		return
	}
	if len(b.waiting) < b.n {
		return
	}
	b.release(p.eng)
	// The dropper runs on against the released procs at a clock no push
	// vouched for (it may be far past the release instant): check it fits a
	// key, as the horizon test assumes of a proc running beside a non-empty
	// tree.
	p.eng.key(p)
}
