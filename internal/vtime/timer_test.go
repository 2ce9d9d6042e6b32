package vtime

import (
	"sort"
	"testing"
)

// TestTimerQueueOrder: timers pop in (deadline, registration-order) order
// regardless of insertion order.
func TestTimerQueueOrder(t *testing.T) {
	var q TimerQueue
	deadlines := []int64{50, 10, 30, 10, 90, 30, 10, 70}
	for i, d := range deadlines {
		q.Add(d, &Timer{Data: i})
	}
	if q.Len() != len(deadlines) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(deadlines))
	}
	if dl, ok := q.NextDeadline(); !ok || dl != 10 {
		t.Fatalf("NextDeadline = %d, %v; want 10, true", dl, ok)
	}

	// Expected pop order: sort (deadline, insertion index) pairs.
	type key struct {
		when int64
		idx  int
	}
	var want []key
	for i, d := range deadlines {
		want = append(want, key{d, i})
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].when != want[b].when {
			return want[a].when < want[b].when
		}
		return want[a].idx < want[b].idx
	})

	for _, w := range want {
		tm := q.PopDue(1 << 62)
		if tm == nil {
			t.Fatal("PopDue returned nil with entries pending")
		}
		if tm.When != w.when || tm.Data.(int) != w.idx {
			t.Fatalf("popped (%d, %d), want (%d, %d)", tm.When, tm.Data.(int), w.when, w.idx)
		}
	}
	if q.PopDue(1<<62) != nil || q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestTimerQueuePopDueRespectsNow: PopDue only yields entries at or before
// now.
func TestTimerQueuePopDueRespectsNow(t *testing.T) {
	var q TimerQueue
	q.Add(100, &Timer{Data: "late"})
	q.Add(40, &Timer{Data: "early"})
	if tm := q.PopDue(39); tm != nil {
		t.Fatalf("PopDue(39) = %v, want nil", tm.Data)
	}
	if tm := q.PopDue(40); tm == nil || tm.Data != "early" {
		t.Fatalf("PopDue(40) should pop the deadline-40 entry")
	}
	if tm := q.PopDue(99); tm != nil {
		t.Fatalf("PopDue(99) = %v, want nil", tm.Data)
	}
	if tm := q.PopDue(100); tm == nil || tm.Data != "late" {
		t.Fatalf("PopDue(100) should pop the deadline-100 entry")
	}
}

// TestTimerQueueRemove: Remove cancels exactly the given pending entry,
// reports false for anything not pending, and leaves the (When, seq) pop
// order of the survivors untouched.
func TestTimerQueueRemove(t *testing.T) {
	var q TimerQueue
	deadlines := []int64{50, 10, 30, 10, 90, 30, 10, 70}
	timers := make([]*Timer, len(deadlines))
	for i, d := range deadlines {
		timers[i] = q.Add(d, &Timer{Data: i})
	}

	// Remove a middle entry, the current minimum, and the maximum.
	for _, i := range []int{2, 1, 4} {
		if !q.Remove(timers[i]) {
			t.Fatalf("Remove(timers[%d]) = false, want true", i)
		}
		if q.Remove(timers[i]) {
			t.Fatalf("second Remove(timers[%d]) = true, want false", i)
		}
	}
	if q.Len() != len(deadlines)-3 {
		t.Fatalf("Len = %d after 3 removals, want %d", q.Len(), len(deadlines)-3)
	}

	// Survivors drain in (deadline, registration-order) order, untouched by
	// the removals.
	want := []int{3, 6, 5, 0, 7} // deadlines 10,10,30,50,70 by insertion order
	for _, wi := range want {
		tm := q.PopDue(1 << 62)
		if tm == nil {
			t.Fatal("PopDue returned nil with entries pending")
		}
		if tm.Data.(int) != wi {
			t.Fatalf("popped entry %d (deadline %d), want entry %d", tm.Data.(int), tm.When, wi)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}

	// A popped timer is no longer pending: Remove must refuse it.
	tm := q.Add(5, &Timer{Data: "once"})
	if got := q.PopDue(5); got != tm {
		t.Fatalf("PopDue(5) = %v, want the added timer", got)
	}
	if q.Remove(tm) {
		t.Fatal("Remove of an already-popped timer returned true")
	}
	// And removing the sole entry empties the queue cleanly.
	tm = q.Add(7, &Timer{Data: "only"})
	if !q.Remove(tm) || q.Len() != 0 {
		t.Fatalf("Remove of the only entry: Len = %d, want 0", q.Len())
	}
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("NextDeadline reports a deadline on an empty queue")
	}
}

// TestTimerQueueRemoveRootAndLeaf: removing the heap's root (the pending
// minimum) repeatedly, and removing the entry sitting at the last heap
// slot, both re-heapify correctly — NextDeadline tracks the true minimum
// after every removal.
func TestTimerQueueRemoveRootAndLeaf(t *testing.T) {
	var q TimerQueue
	deadlines := []int64{40, 20, 60, 10, 80, 30, 70, 50}
	timers := make(map[int64]*Timer, len(deadlines))
	for _, d := range deadlines {
		timers[d] = q.Add(d, &Timer{Data: d})
	}

	// Peel the minimum off via Remove (never PopDue): 10, 20, 30, ...
	expect := []int64{10, 20, 30}
	for _, want := range expect {
		if dl, ok := q.NextDeadline(); !ok || dl != want {
			t.Fatalf("NextDeadline = %d, %v; want %d", dl, ok, want)
		}
		if !q.Remove(timers[want]) {
			t.Fatalf("Remove(root %d) = false", want)
		}
	}
	if dl, ok := q.NextDeadline(); !ok || dl != 40 {
		t.Fatalf("NextDeadline = %d, %v after root removals; want 40", dl, ok)
	}

	// The entry added last sits at the heap's final slot when it is the
	// maximum (50 was added last; 80 is the max — remove both orders).
	if !q.Remove(timers[50]) || !q.Remove(timers[80]) {
		t.Fatal("Remove of tail entries failed")
	}
	var got []int64
	for tm := q.PopDue(1 << 62); tm != nil; tm = q.PopDue(1 << 62) {
		got = append(got, tm.When)
	}
	want := []int64{40, 60, 70}
	if len(got) != len(want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", got, want)
		}
	}
}

// TestTimerQueueRemoveThenRearm: the retry-timer pattern — cancel a pending
// timer and immediately re-add the same payload at a new deadline. The
// re-armed timer is a fresh entry: it pops at the new deadline exactly
// once, and the stale handle stays dead (Remove on it keeps returning
// false, even after the rearm).
func TestTimerQueueRemoveThenRearm(t *testing.T) {
	var q TimerQueue
	q.Add(25, &Timer{Data: "other"})
	stale := q.Add(10, &Timer{Data: "job"})
	if !q.Remove(stale) {
		t.Fatal("Remove of a pending timer failed")
	}
	rearmed := q.Add(30, &Timer{Data: "job"})
	if q.Remove(stale) {
		t.Error("stale handle removable after the rearm")
	}

	if tm := q.PopDue(1 << 62); tm == nil || tm.Data != "other" {
		t.Fatalf("first pop = %v, want the untouched deadline-25 entry", tm)
	}
	tm := q.PopDue(1 << 62)
	if tm == nil || tm != rearmed || tm.When != 30 || tm.Data != "job" {
		t.Fatalf("rearmed pop = %+v, want the deadline-30 rearm", tm)
	}
	if q.PopDue(1<<62) != nil || q.Len() != 0 {
		t.Fatal("queue should be empty after the rearm popped once")
	}

	// Rearm cycles on a queue that heapifies around them: cancel/re-add in
	// a loop against live neighbours, then drain and check order.
	for i, d := range []int64{70, 40, 90} {
		q.Add(d, &Timer{Data: i})
	}
	h := q.Add(55, &Timer{Data: "cycling"})
	for _, d := range []int64{35, 95, 45} {
		if !q.Remove(h) {
			t.Fatalf("cycle Remove at deadline %d failed", d)
		}
		h = q.Add(d, &Timer{Data: "cycling"})
	}
	var got []int64
	for tm := q.PopDue(1 << 62); tm != nil; tm = q.PopDue(1 << 62) {
		got = append(got, tm.When)
	}
	want := []int64{40, 45, 70, 90}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

// TestTimerQueueReusesCallerEntry: a caller-owned entry re-armed after it
// popped or was removed schedules again at its new deadline, in the
// registration order of its new Add; adding it while pending panics; and a
// nil entry schedules a fresh one with no payload.
func TestTimerQueueReusesCallerEntry(t *testing.T) {
	var q TimerQueue
	var own Timer
	own.Data = "own"
	q.Add(20, &own)
	q.Add(20, &Timer{Data: "other"})
	if tm := q.PopDue(20); tm != &own {
		t.Fatalf("first pop = %+v, want the caller's entry", tm)
	}
	q.Add(20, &own) // re-armed after it popped: behind "other" now
	if tm := q.PopDue(20); tm == nil || tm.Data != "other" {
		t.Fatalf("second pop = %+v, want the entry added before the re-arm", tm)
	}
	if tm := q.PopDue(20); tm != &own {
		t.Fatalf("third pop = %+v, want the re-armed entry", tm)
	}
	q.Add(50, &own)
	if !q.Remove(&own) {
		t.Fatal("Remove of the re-armed entry failed")
	}
	q.Add(40, &own) // re-armed after it was removed
	if dl, ok := q.NextDeadline(); !ok || dl != 40 || q.Len() != 1 {
		t.Fatalf("NextDeadline = %d, %v with %d entries; want 40, true, 1", dl, ok, q.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add of a pending entry did not panic")
			}
		}()
		q.Add(60, &own)
	}()
	if tm := q.Add(10, nil); tm == nil || tm.Data != nil || q.PopDue(10) != tm {
		t.Fatalf("Add(10, nil) = %+v, want a fresh entry with no payload that pops at 10", tm)
	}
}
