package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mempage"
)

// Load reads the word at the address. This is the raw accessor; cost
// accounting happens in the runtime layer.
func (s *Space) Load(a Addr) uint64 {
	return s.RegionOf(a).At(a.Word())
}

// Store writes the word at the address.
func (s *Space) Store(a Addr, w uint64) {
	s.RegionOf(a).Set(a.Word(), w)
}

// sameArray reports whether two windows are views of one backing array: the
// capacity of both reaches its last word.
func sameArray(a, b []uint64) bool {
	return cap(a) != 0 && cap(b) != 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// windowCoverage records which ways of growing the windows a program took, so
// the differential test can assert that its programs reach all of them.
type windowCoverage struct {
	// Bump grew the nursery window to each of the steps, and past the last
	// one committed the region whole; the same for the old-area window,
	// which the minor-style copies grow, and for the chunk's window, which
	// Chunk.Bump grows.
	bumpSteps, oldSteps, chunkSteps [len(windowSteps) + 1]bool

	commitAll  bool // an explicit commit made a partial region whole
	resetKept  bool // a collection moved a nursery window that held data and kept its array
	walkedPast bool // the object walk stepped past a promoted-away object in a partial window
	slid       bool // the major-style slide moved young objects down

	scanGrew    bool // a ScanObject visit grew the window of the chunk being scanned
	resetEmpty  bool // a chunk that was never bumped was reset for reuse
	chunkCommit bool // Chunk.CommitWhole made a partial chunk that holds objects whole
}

// windowOps is the number of opcodes a program byte selects from.
const windowOps = 14

// windowSizes are the region sizes a program can pick: one whose first local
// step is one word, a non-power-of-two, and one large enough for
// hundreds of objects below each step.
var windowSizes = [...]int{128, 1000, 4096}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// checkRegionWindow runs a byte program against two heaps of the same shape,
// each a local heap and a chunk — one left to commit its storage as it fills,
// with abandoned arrays poisoned and kept, the other committed whole before
// the first operation — and returns a description of the first difference,
// or "".
// prog[0] picks the local region size (the chunk has twice as many words);
// after it each operation is an opcode byte and two argument bytes:
//
//	0-2  Bump a raw or vector object of a small / medium / large payload
//	     (skipped when the nursery cannot hold it)
//	3    Store to a payload word of an earlier object, nursery or old area
//	4    write through the Payload slice of an earlier object
//	5    SetHeader of an earlier object (same length, other ID)
//	6    ResetNursery (forgets the nursery objects, as a collection would)
//	7    commit the local region whole
//	8    promote an earlier object away: copy it into the chunk and leave a
//	     forwarding word in its header's place (skipped once the chunk is full)
//	9    bump a vector into the chunk and ScanObject it with a visit that
//	     first bumps a filler into the same chunk, past the end of its window
//	     when there is room, and rewrites every slot; the rewrites must land
//	10   reset the chunk for reuse, as the chunk manager does on release
//	     (skipped while a local object is forwarded into it)
//	11   minor-style collection: copy the nursery objects the bits of the first
//	     argument pick (those not promoted away) to OldTop through the
//	     old-area window, forward them there, then ResetNursery with the
//	     copies as the young partition
//	12   major-style slide: move the young partition down to word 1, forget
//	     the old partition and the nursery, then ResetNursery
//	13   commit the chunk whole (Chunk.CommitWhole), as the runtime does to a
//	     replacement chunk, then write through the Payload slice of the
//	     latest object promoted or scanned into it
//
// After every operation both heaps must agree on the layout, on every word
// of the old area and of the nursery's allocated extent, on every object's
// header and payload, and on the object walks of both areas — which must
// frame exactly the objects copied or allocated, in order, stepping past the
// promoted-away ones by their copies' lengths — and the windowed region must
// keep its invariants: a nursery window based at NurseryStart that covers the
// extent and ends inside the region, an old-area window that covers OldTop,
// uncommitted words on either side that panic when read, windows that grow
// only to one of the steps or to the whole region, a nursery window whose
// array survives every move of the nursery, and no way back from whole. The chunks must agree on
// every word and the walk below the bump pointer, and the windowed chunk's
// window must be based at 0, one of the steps, never shrink, and cover the
// bump pointer. No write may have landed in an abandoned array
// (Space.CheckDetached). The growth paths the program took are recorded in
// cov.
func checkRegionWindow(prog []byte, cov *windowCoverage) string {
	if len(prog) == 0 {
		return ""
	}
	// Every operation is followed by a comparison of the whole extent, so
	// cap the program: 512 operations already fill the largest region.
	if max := 1 + 3*512; len(prog) > max {
		prog = prog[:max]
	}
	size := windowSizes[int(prog[0])%len(windowSizes)]
	// Each space also gets a chunk (region 1 in both, so forwarding words
	// agree) for operations 8-10.
	newHeap := func(debug bool) (*Space, *LocalHeap, *Chunk) {
		s := NewSpace(mempage.NewTable(mempage.PolicyLocal, 1))
		s.Debug = debug
		lh := NewLocalHeap(s.NewRegion(RegionLocal, 0, size, 0))
		return s, lh, &Chunk{Region: s.NewRegion(RegionChunk, 0, 2*size, 0), Top: 1}
	}
	ws, win, wchunk := newHeap(true)
	fs, flat, fchunk := newHeap(false)
	flat.Region.commitWhole()
	fchunk.Region.commitWhole()
	if n, o, m := cap(win.Region.Words), cap(win.Region.Old), cap(wchunk.Region.Words); n != 0 || o != 0 || m != 0 {
		return fmt.Sprintf("fresh heap and chunk have %d, %d and %d words committed", n, o, m)
	}
	chunkLen := 0
	// lastChunk is the latest object promoted or scanned into the chunk
	// since its reset, or 0.
	var lastChunk Addr
	descs := NewTable()

	type object struct {
		a   Addr
		n   int
		fwd bool // promoted away: the header word is a forwarding word
	}
	// olds are the old-area objects in address order, objs the nursery's.
	var olds, objs []object
	// pick returns the earlier object x selects, old area first.
	pick := func(x int) *object {
		if x %= len(olds) + len(objs); x < len(olds) {
			return &olds[x]
		}
		return &objs[x-len(olds)]
	}
	// grownTo classifies a window of n words that reaches at most extent
	// words: the step it is at, len(windowSteps) if the region is whole,
	// or -1.
	grownTo := func(r *Region, n, extent int) int {
		if r.whole() {
			return len(windowSteps)
		}
		for i, f := range windowSteps {
			if n == min(r.Size/f, extent) {
				return i
			}
		}
		return -1
	}
	wasWhole := false
	value := uint64(0x9E3779B97F4A7C15)
	// minor copies the nursery object at a to OldTop through the old-area
	// window and forwards it there, as a minor collection does.
	minor := func(lh *LocalHeap, a Addr) Addr {
		r := lh.Region
		h := r.At(a.Word() - 1)
		n, dst := HeaderLen(h), lh.OldTop
		old := r.OldWindow(dst + n + 1)
		old[dst] = h
		copy(old[dst+1:dst+1+n], r.Span(a.Word(), a.Word()+n))
		na := MakeAddr(r.ID, dst+1)
		r.Set(a.Word()-1, MakeForward(na))
		lh.OldTop = dst + n + 1
		return na
	}
	// slide moves the young partition down to word 1, as a major collection
	// does once it has evacuated the old partition.
	slide := func(lh *LocalHeap) {
		r, youngLen := lh.Region, lh.OldTop-lh.YoungStart
		if youngLen > 0 {
			copy(r.Span(1, 1+youngLen), r.Span(lh.YoungStart, lh.OldTop))
		}
		lh.OldTop = 1 + youngLen
		lh.YoungStart = lh.OldTop
	}
	// reset runs ResetNursery on both heaps and checks that the windowed
	// nursery window kept its array.
	reset := func() string {
		r := win.Region
		before, data := r.Words, win.Alloc > win.NurseryStart
		win.ResetNursery()
		flat.ResetNursery()
		if cap(before) != 0 && !sameArray(before, r.Words) {
			return "ResetNursery replaced the nursery window's array"
		}
		if data && cap(before) != 0 {
			cov.resetKept = true
		}
		return ""
	}

	for pc := 1; pc+2 < len(prog); pc += 3 {
		op, x, y := prog[pc]%windowOps, int(prog[pc+1]), int(prog[pc+2])
		at := fmt.Sprintf("op %d (%d %d %d)", pc/3, op, x, y)
		r := win.Region
		lenBefore, oldBefore, wholeBefore := len(r.Words), cap(r.Old), r.whole()
		switch op {
		case 0, 1, 2:
			n := x % 8
			if op == 1 {
				n = x
			} else if op == 2 {
				n = x * (size / 512)
			}
			if win.CanAlloc(n) != flat.CanAlloc(n) {
				return fmt.Sprintf("%s: CanAlloc(%d) = %v windowed, %v flat", at, n, win.CanAlloc(n), flat.CanAlloc(n))
			}
			if !win.CanAlloc(n) {
				break
			}
			h := MakeHeader(IDRaw+uint16(y%2), n)
			a, fa := win.Bump(h), flat.Bump(h)
			if a != fa {
				return fmt.Sprintf("%s: Bump returned %v windowed, %v flat", at, a, fa)
			}
			objs = append(objs, object{a: a, n: n})
			if grown := len(r.Words); grown != lenBefore && !wholeBefore {
				i := grownTo(r, grown, size-r.Base)
				if i < 0 {
					return fmt.Sprintf("%s: Bump grew the nursery window to %d words, none of the steps of a %d-word region",
						at, grown, size)
				}
				cov.bumpSteps[i] = true
			}
		case 3, 4, 5:
			if len(olds)+len(objs) == 0 {
				break
			}
			o := pick(x)
			value = value*6364136223846793005 + 1442695040888963407
			switch {
			case op == 5:
				h := MakeHeader(IDRaw+uint16(y%2), o.n)
				ws.SetHeader(o.a, h)
				fs.SetHeader(o.a, h)
				o.fwd = false
			case o.n == 0 || op == 4 && o.fwd:
			case op == 3:
				slot := MakeAddr(o.a.RegionID(), o.a.Word()+y%o.n)
				ws.Store(slot, value)
				fs.Store(slot, value)
			default:
				ws.Payload(o.a)[y%o.n] = value
				fs.Payload(o.a)[y%o.n] = value
			}
		case 6:
			if msg := reset(); msg != "" {
				return fmt.Sprintf("%s: %s", at, msg)
			}
			objs = objs[:0]
		case 7:
			if !wholeBefore {
				cov.commitAll = true
			}
			win.Region.commitWhole()
		case 8:
			if len(olds)+len(objs) == 0 {
				break
			}
			o := pick(x)
			if o.fwd || !wchunk.CanAlloc(o.n) {
				break
			}
			h := ws.Header(o.a)
			na, fna := wchunk.Bump(h), fchunk.Bump(h)
			if na != fna {
				return fmt.Sprintf("%s: chunk Bump returned %v windowed, %v flat", at, na, fna)
			}
			copy(ws.Payload(na), ws.Payload(o.a))
			copy(fs.Payload(fna), fs.Payload(o.a))
			ws.SetHeader(o.a, MakeForward(na))
			fs.SetHeader(o.a, MakeForward(fna))
			o.fwd = true
			lastChunk = na
		case 9:
			k := 1 + x%8
			if !wchunk.CanAlloc(k) {
				break
			}
			h := MakeHeader(IDVector, k)
			va, fva := wchunk.Bump(h), fchunk.Bump(h)
			if va != fva {
				return fmt.Sprintf("%s: chunk Bump returned %v windowed, %v flat", at, va, fva)
			}
			// A filler that ends past the windowed chunk's current window.
			filler := max(0, len(wchunk.Region.Words)-wchunk.Top) + y%4
			want := make([]Addr, k)
			for i := range want {
				value = value*6364136223846793005 + 1442695040888963407
				want[i] = Addr(value)
			}
			scan := func(s *Space, c *Chunk) {
				ScanObject(s, descs, va, func(i int, _ Addr) Addr {
					if i == 0 && c.CanAlloc(filler) {
						c.Bump(MakeHeader(IDRaw, filler))
					}
					return want[i]
				})
			}
			windowBefore := len(wchunk.Region.Words)
			scan(ws, wchunk)
			scan(fs, fchunk)
			lastChunk = va
			if len(wchunk.Region.Words) != windowBefore {
				cov.scanGrew = true
			}
			for _, s := range []*Space{ws, fs} {
				for i, p := range s.Payload(va) {
					if Addr(p) != want[i] {
						return fmt.Sprintf("%s: slot %d of scanned %v reads %#x, visit returned %#x", at, i, va, p, uint64(want[i]))
					}
				}
			}
		case 10:
			fwd := func(o object) bool { return o.fwd }
			if slices.ContainsFunc(olds, fwd) || slices.ContainsFunc(objs, fwd) {
				break
			}
			if len(wchunk.Region.Words) == 0 {
				cov.resetEmpty = true
			}
			wchunk.reset(0, true)
			fchunk.reset(0, true)
			lastChunk = 0
		case 13:
			if wchunk.Top > 1 && !wchunk.Region.whole() {
				cov.chunkCommit = true
			}
			wchunk.CommitWhole()
			fchunk.CommitWhole()
			if lastChunk == 0 {
				break
			}
			value = value*6364136223846793005 + 1442695040888963407
			for _, s := range []*Space{ws, fs} {
				if p := s.Payload(lastChunk); len(p) != 0 {
					p[y%len(p)] = value
				}
			}
		case 11:
			youngStart := win.OldTop
			for i, o := range objs {
				if o.fwd || x>>(i%8)&1 == 0 {
					continue
				}
				na, fna := minor(win, o.a), minor(flat, o.a)
				if na != fna {
					return fmt.Sprintf("%s: minor copy of %v landed at %v windowed, %v flat", at, o.a, na, fna)
				}
				olds = append(olds, object{a: na, n: o.n})
			}
			win.YoungStart, flat.YoungStart = youngStart, youngStart
			if msg := reset(); msg != "" {
				return fmt.Sprintf("%s: %s", at, msg)
			}
			objs = objs[:0]
		case 12:
			youngStart := win.YoungStart
			slide(win)
			slide(flat)
			young := olds[:0]
			for _, o := range olds {
				if w := o.a.Word(); w > youngStart {
					o.a = MakeAddr(o.a.RegionID(), w-(youngStart-1))
					young = append(young, o)
				}
			}
			if len(young) != 0 && youngStart > 1 {
				cov.slid = true
			}
			olds = young
			if msg := reset(); msg != "" {
				return fmt.Sprintf("%s: %s", at, msg)
			}
			objs = objs[:0]
		}
		if err := ws.CheckDetached(); err != nil {
			return fmt.Sprintf("%s: %v", at, err)
		}

		// The chunk: its window, then every word and the walk below Top.
		cr := wchunk.Region
		switch n := len(cr.Words); {
		case cr.Base != 0:
			return fmt.Sprintf("%s: chunk window based at %d", at, cr.Base)
		case n != 0 && grownTo(cr, n, cr.Size) < 0:
			return fmt.Sprintf("%s: chunk window of %d words is none of the steps of a %d-word region", at, n, cr.Size)
		case n < chunkLen:
			return fmt.Sprintf("%s: chunk window shrank from %d to %d words", at, chunkLen, n)
		case wchunk.Top > max(n, 1):
			return fmt.Sprintf("%s: chunk window of %d words does not cover top %d", at, n, wchunk.Top)
		case n < cr.Size && !panics(func() { ws.Load(MakeAddr(cr.ID, n)) }):
			return fmt.Sprintf("%s: reading uncommitted chunk word %d did not panic", at, n)
		case n != chunkLen:
			cov.chunkSteps[grownTo(cr, n, cr.Size)] = true
		}
		chunkLen = len(cr.Words)
		if got := ws.CommittedWords(RegionChunk); got != chunkLen {
			return fmt.Sprintf("%s: CommittedWords(RegionChunk) = %d, want %d", at, got, chunkLen)
		}
		if wchunk.Top != fchunk.Top {
			return fmt.Sprintf("%s: chunk top %d windowed, %d flat", at, wchunk.Top, fchunk.Top)
		}
		for w := 1; w < wchunk.Top; w++ {
			if g, f := cr.At(w), fchunk.Region.At(w); g != f {
				return fmt.Sprintf("%s: chunk word %d = %#x windowed, %#x flat", at, w, g, f)
			}
		}
		cw, fcw := cr.Walk(1, wchunk.Top), fchunk.Region.Walk(1, fchunk.Top)
		for i := 0; ; i++ {
			wa, wh, wok := cw.Next()
			fa, fh, fok := fcw.Next()
			if wa != fa || wh != fh || wok != fok {
				return fmt.Sprintf("%s: chunk walk step %d framed %v %#x %v windowed, %v %#x %v flat", at, i, wa, wh, wok, fa, fh, fok)
			}
			if !wok {
				break
			}
		}

		// Layout.
		if win.NurseryStart != flat.NurseryStart || win.Alloc != flat.Alloc || win.Limit != flat.Limit ||
			win.OldTop != flat.OldTop || win.YoungStart != flat.YoungStart {
			return fmt.Sprintf("%s: layout young=%d oldTop=%d nursery=%d alloc=%d limit=%d windowed, %d %d %d %d %d flat", at,
				win.YoungStart, win.OldTop, win.NurseryStart, win.Alloc, win.Limit,
				flat.YoungStart, flat.OldTop, flat.NurseryStart, flat.Alloc, flat.Limit)
		}
		if err := win.CheckLayout(); err != nil {
			return fmt.Sprintf("%s: %v", at, err)
		}

		// Window invariants: the nursery window, then the old-area one.
		lo, hi := r.Base, r.Base+len(r.Words)
		switch {
		case r.Base != win.NurseryStart:
			return fmt.Sprintf("%s: nursery window based at %d, nursery starts at %d", at, r.Base, win.NurseryStart)
		case win.Alloc > max(hi, lo) || hi > size:
			return fmt.Sprintf("%s: nursery window [%d,%d) does not cover the extent up to %d inside %d words", at, lo, hi, win.Alloc, size)
		case hi < size && !panics(func() { ws.Load(MakeAddr(r.ID, hi)) }):
			return fmt.Sprintf("%s: reading uncommitted word %d past the nursery window [%d,%d) did not panic", at, hi, lo, hi)
		case win.OldTop > max(len(r.Old), 1):
			return fmt.Sprintf("%s: old-area window of %d words does not cover OldTop %d", at, len(r.Old), win.OldTop)
		}
		if n := len(r.Old); n < lo {
			for _, w := range []int{n, lo - 1} {
				if !panics(func() { ws.Load(MakeAddr(r.ID, w)) }) {
					return fmt.Sprintf("%s: reading uncommitted word %d between the old-area window [0,%d) and the nursery's at %d did not panic", at, w, n, lo)
				}
			}
		}
		switch grown := cap(r.Old); {
		case grown == oldBefore || wholeBefore:
		case r.whole() && op != 11: // a bump or an explicit commit
		case op != 11:
			return fmt.Sprintf("%s: the old-area window grew from %d to %d words outside a minor copy", at, oldBefore, grown)
		default:
			i := grownTo(r, grown, size)
			if i < 0 {
				return fmt.Sprintf("%s: old-area window grew to %d words, none of the steps of a %d-word region", at, grown, size)
			}
			cov.oldSteps[i] = true
		}
		want := cap(r.Words) + cap(r.Old)
		switch {
		case r.whole():
			if len(r.Old) != r.Base || len(r.Words) != size-r.Base || !sameArray(r.Old[r.Base:size], r.Words) {
				return fmt.Sprintf("%s: the windows [0,%d) and [%d,%d) of a whole region are not its two views", at, len(r.Old), lo, hi)
			}
			want = size
		case wasWhole:
			return fmt.Sprintf("%s: a whole region went back to windows of %d and %d words", at, len(r.Old), len(r.Words))
		}
		wasWhole = r.whole()
		if got := ws.CommittedWords(RegionLocal); got != want {
			return fmt.Sprintf("%s: CommittedWords = %d, want %d", at, got, want)
		}

		// Contents: every word of both areas, then every object through
		// the object accessors.
		for _, span := range [][2]int{{1, win.OldTop}, {win.NurseryStart, win.Alloc}} {
			for w := span[0]; w < span[1]; w++ {
				a := MakeAddr(r.ID, w)
				if g, f := ws.Load(a), fs.Load(a); g != f {
					return fmt.Sprintf("%s: word %d = %#x windowed, %#x flat", at, w, g, f)
				}
			}
		}
		for _, o := range slices.Concat(olds, objs) {
			if g, f := ws.Header(o.a), fs.Header(o.a); g != f {
				return fmt.Sprintf("%s: header of %v = %#x windowed, %#x flat", at, o.a, g, f)
			}
			if g, f := ws.ObjectLen(o.a), fs.ObjectLen(o.a); g != f || g != o.n {
				return fmt.Sprintf("%s: ObjectLen of %v = %d windowed, %d flat, allocated %d", at, o.a, g, f, o.n)
			}
			if o.fwd {
				continue
			}
			wp, fp := ws.Payload(o.a), fs.Payload(o.a)
			if len(wp) != len(fp) {
				return fmt.Sprintf("%s: payload of %v has %d words windowed, %d flat", at, o.a, len(wp), len(fp))
			}
			for i := range wp {
				if wp[i] != fp[i] {
					return fmt.Sprintf("%s: payload of %v word %d = %#x windowed, %#x flat", at, o.a, i, wp[i], fp[i])
				}
			}
		}

		// The object walks of both areas, against the flat twin's and
		// against the objects copied or allocated.
		for _, area := range []struct {
			lo, hi int
			objs   []object
		}{{1, win.OldTop, olds}, {win.NurseryStart, win.Alloc, objs}} {
			ww, fw := r.Walk(area.lo, area.hi), flat.Region.Walk(area.lo, area.hi)
			for i := 0; ; i++ {
				wa, wh, wok := ww.Next()
				fa, fh, fok := fw.Next()
				if wa != fa || wh != fh || wok != fok {
					return fmt.Sprintf("%s: walk of [%d,%d) step %d framed %v %#x %v windowed, %v %#x %v flat",
						at, area.lo, area.hi, i, wa, wh, wok, fa, fh, fok)
				}
				if !wok {
					if i != len(area.objs) {
						return fmt.Sprintf("%s: walk of [%d,%d) framed %d objects, %d placed there", at, area.lo, area.hi, i, len(area.objs))
					}
					break
				}
				if i >= len(area.objs) || wa != area.objs[i].a || IsHeader(wh) == area.objs[i].fwd {
					return fmt.Sprintf("%s: walk of [%d,%d) step %d framed %v (header %#x), placed %+v",
						at, area.lo, area.hi, i, wa, wh, area.objs[min(i, len(area.objs)-1)])
				}
				if area.objs[i].fwd && i+1 < len(area.objs) && !r.whole() {
					cov.walkedPast = true
				}
			}
		}
	}
	return ""
}

// windowEdgeCases are hand-written programs for the corners: nothing
// allocated, objects that end exactly on and one past each step, one object
// that skips both steps, a commit of an empty window, a nursery reset
// between the steps, the reuse of a chunk that was never bumped, scans
// that grow the chunk they scan, minor-style copies that take the
// old-area window through each step and a slide that moves them down, and a
// chunk committed whole under the objects promoted into it.
func windowEdgeCases() [][]byte {
	// windowSizes[2] = 4096: local steps of 32, 128 and 512 words, chunk
	// steps (of 8192) of 64, 256 and 1024; the large payload unit is 8.
	big := byte(2)
	return [][]byte{
		{big},
		{big, 7, 0, 0, 0, 3, 0},
		{big, 1, 31, 0, 0, 0, 0}, // 32 words: exactly the first step
		{big, 1, 31, 0, 0, 0, 0, 1, 94, 1, 0, 0, 0}, // ... then exactly the second
		{big, 1, 32, 0},                                // one past the first step
		{big, 1, 126, 0, 1, 255, 1, 3, 0, 9},           // straight to the second step, then past it
		{big, 2, 200, 0, 3, 0, 5},                      // one 1600-word object commits the region whole
		{big, 0, 3, 0, 4, 0, 1, 7, 0, 0, 4, 0, 2},      // a commit under a live payload
		{big, 1, 100, 0, 6, 0, 0, 1, 40, 1, 1, 250, 0}, // reset between the steps
		{0, 0, 1, 0, 0, 3, 1, 1, 30, 0},                // 128 words: steps of 1, 4 and 16
		{1, 1, 14, 0, 1, 46, 1, 1, 200, 0},             // 1000 words: steps of 7, 31 and 125
		// Promote the middle object of three, then the first, away; then
		// un-forward the middle one.
		{big, 0, 3, 0, 0, 5, 1, 0, 0, 0, 8, 1, 0, 8, 0, 0, 5, 1, 1},
		// Release and reuse a chunk that was never bumped, then promote into
		// it, and release it again with its window kept.
		{big, 10, 0, 0, 0, 3, 0, 8, 0, 0, 6, 0, 0, 10, 0, 0, 0, 2, 0, 8, 0, 0},
		// Four scans whose visits bump the chunk they scan: from an empty
		// window past the first step (64 of 8192 words), past the second
		// (256), past the third (1024), which commits the chunk whole, and
		// once it is whole.
		{big, 9, 7, 0, 9, 7, 1, 9, 7, 2, 9, 7, 3},
		// Copy three objects to the old area (4 words, then 65: the first
		// step, then the second), store into the copies, and do it again
		// with the second of three left behind; then slide the young
		// partition down and store into it.
		{big, 0, 3, 0, 1, 60, 0, 0, 5, 1, 11, 255, 0, 3, 1, 0, 4, 2, 1,
			0, 4, 0, 0, 2, 1, 0, 6, 0, 11, 5, 0, 12, 0, 0, 3, 0, 1, 4, 1, 0},
		// Two minor-style copies of 401 words each: the old-area window
		// takes the last step, then commits the region whole.
		{big, 1, 200, 0, 1, 199, 1, 11, 255, 0, 1, 200, 0, 1, 199, 1, 11, 255, 0, 3, 0, 0},
		// A 1601-word object commits the region whole, and a minor-style
		// copy of it lands in the whole region as the nursery moves up.
		{big, 2, 200, 0, 11, 1, 0, 0, 3, 0},
		// Promote a young old-area object away and walk past it, then slide
		// it down with its forwarding word.
		{big, 0, 3, 0, 11, 255, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 11, 255, 0, 8, 2, 0, 12, 0, 0},
		// Promote an object into the chunk, commit the chunk whole under it
		// and write through its payload, then promote a second one into the
		// whole chunk and do it again.
		{big, 0, 3, 0, 0, 5, 1, 8, 0, 0, 13, 0, 1, 8, 1, 0, 13, 0, 2},
	}
}

// TestRegionWindowMatchesFlat is the differential test of the local-heap and
// chunk windows against fully committed twins: the edge cases, then seeded random
// programs over all three region sizes. It also asserts that the programs
// reached every way the window can grow.
func TestRegionWindowMatchesFlat(t *testing.T) {
	var cov windowCoverage
	run := func(name string, prog []byte) {
		if msg := checkRegionWindow(prog, &cov); msg != "" {
			t.Fatalf("%s: %s\nprogram: %v", name, msg, prog)
		}
	}
	for i, prog := range windowEdgeCases() {
		run(fmt.Sprintf("edge case %d", i), prog)
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 1+3*(1+rng.Intn(120)))
		rng.Read(prog)
		// Bias the opcodes towards small allocations and away from the
		// operations that end the windowed phase, so that programs spend
		// time below each step.
		for pc := 1; pc < len(prog); pc += 3 {
			if op := prog[pc] % windowOps; (op == 2 || op == 7 || op == 13) && rng.Intn(8) != 0 {
				prog[pc] = byte(rng.Intn(2)) * 3
			}
		}
		run(fmt.Sprintf("seed %d", seed), prog)
	}
	if slices.Contains(cov.bumpSteps[:], false) || slices.Contains(cov.oldSteps[:], false) ||
		slices.Contains(cov.chunkSteps[:], false) || !cov.commitAll || !cov.resetKept || !cov.walkedPast ||
		!cov.slid || !cov.scanGrew || !cov.resetEmpty || !cov.chunkCommit {
		t.Fatalf("programs did not reach every growth path: %+v", cov)
	}
}

// FuzzRegionWindow lets the fuzzer write the programs; the edge cases and the
// committed corpus (testdata/fuzz/FuzzRegionWindow) run as plain tests.
func FuzzRegionWindow(f *testing.F) {
	for _, prog := range windowEdgeCases() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if msg := checkRegionWindow(prog, new(windowCoverage)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestStaleAliasIsPoisoned holds a Payload slice across an allocation that
// grows the nursery window, and another across a copy that grows the
// old-area window: under Space.Debug each detached slice must read poison,
// not the data the heap still holds, and a write through it must fail
// CheckDetached.
func TestStaleAliasIsPoisoned(t *testing.T) {
	s := NewSpace(mempage.NewTable(mempage.PolicyLocal, 1))
	s.Debug = true
	lh := NewLocalHeap(s.NewRegion(RegionLocal, 0, 4096, 0))
	a := lh.Bump(MakeHeader(IDRaw, 2))
	stale := s.Payload(a)
	stale[0], stale[1] = 7, 8

	lh.Bump(MakeHeader(IDRaw, 100)) // outgrows the 32-word first step
	if stale[0] != poisonWord || stale[1] != poisonWord {
		t.Fatalf("slice held across a growing allocation reads %#x %#x, want poison", stale[0], stale[1])
	}
	if live := s.Payload(a); live[0] != 7 || live[1] != 8 {
		t.Fatalf("heap lost the object's data across the step: %#x %#x", live[0], live[1])
	}

	// Copy the object into the old area as a minor collection does, then
	// outgrow the old-area window's first step with a second copy.
	r := lh.Region
	copyOld := func(n int) Addr {
		old := r.OldWindow(lh.OldTop + n + 1)
		old[lh.OldTop] = MakeHeader(IDRaw, n)
		na := MakeAddr(r.ID, lh.OldTop+1)
		lh.OldTop += n + 1
		return na
	}
	b := copyOld(2)
	copy(s.Payload(b), s.Payload(a))
	live := s.Payload(b)
	copyOld(100)
	if live[0] != poisonWord {
		t.Fatalf("slice held across the old-area window's growth reads %#x, want poison", live[0])
	}
	if p := s.Payload(b); p[0] != 7 || p[1] != 8 {
		t.Fatalf("heap lost the old-area object's data across the step: %#x %#x", p[0], p[1])
	}
	if err := s.CheckDetached(); err != nil {
		t.Fatalf("reads alone reported as a detached write: %v", err)
	}
	live[1] = 9 // lost: the heap holds the object elsewhere now
	if err := s.CheckDetached(); err == nil || !strings.Contains(err.Error(), "r0 abandoned") {
		t.Fatalf("a write through a detached old-area slice went unreported: %v", err)
	}
	if IsHeader(poisonWord) || poisonWord == 0 {
		t.Fatal("poison must be neither a header nor nil")
	}
	if id := Addr(poisonWord).RegionID(); id < s.NumRegions() {
		t.Fatalf("poison read as a pointer names existing region %d", id)
	}
	if id := ForwardTarget(poisonWord).RegionID(); id < s.NumRegions() {
		t.Fatalf("poison read as a forwarding word names existing region %d", id)
	}

	// Without Debug the abandoned array is left alone.
	s.Debug = false
	lh2 := NewLocalHeap(s.NewRegion(RegionLocal, 1, 4096, 0))
	c := lh2.Bump(MakeHeader(IDRaw, 1))
	old := s.Payload(c)
	old[0] = 9
	lh2.Bump(MakeHeader(IDRaw, 100))
	if old[0] != 9 {
		t.Fatalf("abandoned array rewritten without Debug: %#x", old[0])
	}
}
