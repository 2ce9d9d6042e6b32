package vtime

// Span/window scheduler: conservative time-windowed execution of
// interaction-free step machines (see the package comment in engine.go for
// the invariant and the proof sketch). Everything here runs on the token
// holder.

// spanQuota bounds the turns one runSlice executes, so a round ends even
// when a span's park key is far away (or infinite) and newly discovered
// exits can lower the bound between rounds. The value never affects virtual
// results, only how far spans run before a lowered bound stops them
// (SpanStats.SpanTurns).
const spanQuota = 4096

// SpanStats counts the span/window scheduler's work. All fields are
// deterministic for a given simulation, the same at every SetParallel n >= 2,
// and zero at n == 1.
type SpanStats struct {
	// Windows is the number of windows run; Spans sums their
	// participant counts (mean span width = Spans/Windows).
	Windows int64
	Spans   int64
	// SpanTurns counts step turns executed inside windows, replayed
	// turns included.
	SpanTurns int64
	// Close causes: the window ran to the conservative edge owned by a
	// plain step machine (CloseEdgeStep) or a goroutine-bound proc
	// (CloseEdgeProc), or a span exited below the edge and forced an
	// early close (CloseExit). Interaction hot spots that kill window
	// width show up as a high CloseExit share.
	CloseEdgeStep int64
	CloseEdgeProc int64
	CloseExit     int64
}

// SpanStats returns the accumulated window counters. Like MaxClock it must
// not be called while Run is executing procs.
func (e *Engine) SpanStats() SpanStats { return e.spanStats }

// spanRun tracks one window participant. startClock pairs with the proc's
// spanSave checkpoint. at is the key of the span's latest turn: once exited
// or panicked is set, the virtual instant of that event.
type spanRun struct {
	p          *Proc
	startClock int64
	turns      int64
	at         uint64
	parked     bool
	exited     bool
	panicked   bool
	panicVal   any
}

// event reports whether the span stopped at an exit or a panic (keyed at).
func (r *spanRun) event() bool { return r.exited || r.panicked }

// popSpans pops the span-parked procs at the front of the ready tree, in key
// order, and appends them to runs as window participants.
func (e *Engine) popSpans(runs []spanRun) []spanRun {
	for k := e.horizon(); k != noHorizon && e.procOf(k).span; k = e.horizon() {
		p := e.procOf(k)
		e.pop(p)
		runs = append(runs, spanRun{p: p, startClock: p.clock})
	}
	return runs
}

// runSlice executes up to spanQuota turns of the span while its key stays
// below the bound. It touches only r and r.p's private state, so the order
// in which a round runs its spans' slices changes nothing.
func (r *spanRun) runSlice(bound uint64) {
	p := r.p
	defer func() {
		if v := recover(); v != nil {
			r.panicked = true
			r.panicVal = v
		}
	}()
	for i := 0; i < spanQuota; i++ {
		// A clock the previous turn pushed out of its key field panics
		// here, still keyed at that turn — where the serial engine,
		// re-keying the proc, would have hit it.
		k := p.eng.key(p)
		if k >= bound {
			r.parked = true
			return
		}
		r.at = k
		d, done := p.step()
		r.turns++
		if done {
			r.exited = true
			return
		}
		if d < 0 {
			panic("vtime: negative advance")
		}
		p.clock += d
	}
}

// spanWindow runs one window. Precondition (checked by dispatch):
// the two smallest ready keys belong to span-parked procs, which are only
// ever marked at SetParallel n >= 2.
//
// Returns the winner when a span's step reported done below every other
// pending key: it is committed exactly as the serial inline loop would have
// committed it and is the new global minimum, ready to be granted. Returns
// nil when the window closed at its edge with every participant parked at
// or beyond it.
func (e *Engine) spanWindow() *Proc {
	// The participants are the span-parked procs at the front of the ready
	// tree: pop them in key order while the minimum is span-parked — at
	// least two, which dispatch checked. The conservative edge E is the
	// front they leave behind: the smallest key among ready procs that are
	// NOT span-parked. The moment such a proc runs it may mutate shared
	// state, so no span turn may execute at or beyond E.
	runs := e.popSpans(e.spanRuns[:0])
	edge, edgeStep := e.horizon(), false
	if edge != noHorizon {
		edgeStep = e.procOf(edge).step != nil
	}

	// Checkpoint the participants.
	e.spanRuns = runs
	for i := range runs {
		if p := runs[i].p; p.spanSave != nil {
			p.spanSave()
		}
	}

	// First pass: run all spans in rounds, lowering the bound to the
	// earliest discovered event (exit or panic) so spans stop as soon as
	// their remaining turns could not precede it.
	bound := edge
	active := e.spanActive[:0]
	for i := range runs {
		active = append(active, &runs[i])
	}
	for len(active) > 0 {
		for _, r := range active {
			r.runSlice(bound)
		}
		for i := range runs {
			if r := &runs[i]; r.event() && r.at < bound {
				bound = r.at
			}
		}
		na := active[:0]
		for _, r := range active {
			if r.event() || r.parked {
				continue
			}
			if e.key(r.p) < bound {
				na = append(na, r)
			} else {
				r.parked = true
			}
		}
		active = na
	}
	e.spanActive = active[:0]

	e.spanStats.Windows++
	e.spanStats.Spans += int64(len(runs))
	defer func() {
		for i := range runs {
			e.spanStats.SpanTurns += runs[i].turns
		}
	}()

	// B = bound: the earliest event, or the edge if none. Events always
	// precede the edge strictly (a turn only ran because its key was below
	// the bound at the time), so bound == edge means no event happened and
	// every participant parked at or beyond E.
	if bound == edge {
		for i := range runs {
			e.push(runs[i].p)
		}
		if edgeStep {
			e.spanStats.CloseEdgeStep++
		} else {
			e.spanStats.CloseEdgeProc++
		}
		return nil
	}

	// Keys are unique, so exactly one span's event sits at B.
	var winner *spanRun
	for i := range runs {
		if r := &runs[i]; r.event() && r.at == bound {
			winner = r
			break
		}
	}
	if winner == nil {
		panic("vtime: window bound lowered without a matching event")
	}

	// The winner's turns all precede B, reading frozen shared state and
	// its own (never rolled back) private state — serially identical. If
	// its event is a panic, the serial engine would have hit that very
	// panic on the token holder's inline call at the same instant;
	// re-raise it here, on the token holder.
	if winner.panicked {
		panic(winner.panicVal)
	}

	// A span exited below the edge: commit it as the serial inline loop
	// would (step done; its clock is still that of the exiting turn), roll
	// every other participant back to its window-entry checkpoint, and
	// replay below B. The replay is deterministic — shared state was frozen
	// for the whole window and restore rewound the spans' private state —
	// and by B's minimality it can hit no event, so every replayed span
	// parks at or beyond B.
	wp := winner.p
	wp.step = nil
	wp.clearSpan()
	e.spanStats.CloseExit++

	replay := e.spanActive[:0]
	for i := range runs {
		r := &runs[i]
		if r == winner {
			continue
		}
		if r.p.spanRestore != nil {
			r.p.spanRestore()
		}
		e.stats.ReplayedTurns -= r.turns // the first pass's; the push below adds the total
		r.p.clock = r.startClock
		r.parked, r.exited, r.panicked = false, false, false
		replay = append(replay, r)
	}
	for len(replay) > 0 {
		for _, r := range replay {
			r.runSlice(bound)
		}
		nr := replay[:0]
		for _, r := range replay {
			if r.event() {
				panic("vtime: span replay diverged below the committed bound (span-safety contract violation)")
			}
			if !r.parked {
				nr = append(nr, r)
			}
		}
		replay = nr
	}
	e.spanActive = replay[:0]
	for i := range runs {
		if r := &runs[i]; r != winner {
			e.stats.ReplayedTurns += r.turns
			e.push(r.p)
		}
	}
	// Every re-pushed key is >= B and the winner's key is exactly B with
	// all other ready keys > B (keys are unique), so the winner is the
	// global minimum: dispatch returns it for the token handoff.
	return wp
}
