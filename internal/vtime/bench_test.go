package vtime

import "testing"

// BenchmarkAdvanceFastPath measures the horizon fast path: a single proc
// (empty ready tree ⇒ horizon at +inf) advancing is a plain local add.
func BenchmarkAdvanceFastPath(b *testing.B) {
	e := NewEngine(1)
	e.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
}

// BenchmarkAdvanceCrossing measures the slow path where every advance
// crosses the horizon and hands the token to another proc's coroutine. Each
// reported op includes n token handoffs (2n coroutine switches).
func benchAdvanceCrossing(b *testing.B, n int) {
	e := NewEngine(n)
	e.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
}

func BenchmarkAdvanceCrossing2(b *testing.B)  { benchAdvanceCrossing(b, 2) }
func BenchmarkAdvanceCrossing8(b *testing.B)  { benchAdvanceCrossing(b, 8) }
func BenchmarkAdvanceCrossing48(b *testing.B) { benchAdvanceCrossing(b, 48) }

// BenchmarkAdvanceOverSteppers measures the inline-step path: one proc
// advances while the others are parked in StepWhile, so every crossing is
// resolved with function calls instead of handoffs. Each reported op
// includes n-1 inline steps.
func benchAdvanceOverSteppers(b *testing.B, n int) {
	e := NewEngine(n)
	var stop bool
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
			stop = true
			return
		}
		p.StepWhile(func() (int64, bool) {
			if stop {
				return 0, true
			}
			return 1, false
		})
	})
}

func BenchmarkAdvanceOverSteppers2(b *testing.B)  { benchAdvanceOverSteppers(b, 2) }
func BenchmarkAdvanceOverSteppers48(b *testing.B) { benchAdvanceOverSteppers(b, 48) }

// benchInlineTurn measures one inline turn of the ready tree with n parked
// steppers and nothing else: proc 0 parks too, so the whole run is the
// dispatch loop re-keying its minimum. With period(id) == 1 for every
// stepper the schedule is lockstep — the stepper that just ran lands behind
// every other; with per-turn xorshift periods in [1, 2n] a re-keyed stepper
// lands uniformly among them. A re-key replays one leaf-to-root path either
// way, so the two cost the same.
func benchInlineTurn(b *testing.B, n int, uniform bool) {
	e := NewEngine(n)
	turns := 0
	b.ResetTimer()
	e.Run(func(p *Proc) {
		x := uint64(p.ID)*0x9e3779b97f4a7c15 + 1
		p.StepWhile(func() (int64, bool) {
			if turns >= b.N {
				return 0, true
			}
			turns++
			if !uniform {
				return 1, false
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return 1 + int64(x%uint64(2*n)), false
		})
	})
}

func BenchmarkInlineTurnLockstep48(b *testing.B)   { benchInlineTurn(b, 48, false) }
func BenchmarkInlineTurnLockstep256(b *testing.B)  { benchInlineTurn(b, 256, false) }
func BenchmarkInlineTurnLockstep1024(b *testing.B) { benchInlineTurn(b, 1024, false) }
func BenchmarkInlineTurnUniform48(b *testing.B)    { benchInlineTurn(b, 48, true) }
func BenchmarkInlineTurnUniform256(b *testing.B)   { benchInlineTurn(b, 256, true) }
func BenchmarkInlineTurnUniform1024(b *testing.B)  { benchInlineTurn(b, 1024, true) }

// BenchmarkHandoff and BenchmarkInlineStep are the canonical pair tracking
// the cost ratio the step conversions exploit: the same two-proc lockstep
// schedule resolved by token handoffs (coroutine switches) versus by inline
// steps.
// Each op is one scheduling turn; Handoff/InlineStep is the per-turn win of
// step-converting a hot loop.

// BenchmarkHandoff: both procs advance in direct style, so every Advance
// crosses the horizon and transfers the token to the other coroutine.
func BenchmarkHandoff(b *testing.B) { benchAdvanceCrossing(b, 2) }

// BenchmarkInlineStep: the second proc is parked in StepWhile, so its turns
// execute as function calls on the token holder's stack and the token never
// moves.
func BenchmarkInlineStep(b *testing.B) { benchAdvanceOverSteppers(b, 2) }

// BenchmarkBlockWake measures a wake/block round trip between two procs.
func BenchmarkBlockWake(b *testing.B) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			for i := 0; i < b.N; i++ {
				p.Block()
			}
			return
		}
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			p.Wake(e.Proc(1))
		}
	})
}

// BenchmarkBarrier measures a full 8-proc barrier round.
func BenchmarkBarrier(b *testing.B) {
	e := NewEngine(8)
	bar := NewBarrier(8, 5)
	e.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(int64(p.ID) + 1)
			bar.Arrive(p)
		}
	})
}
