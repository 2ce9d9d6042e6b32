package heap

import (
	"fmt"
	"math/rand"
	"slices"
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

// windowCoverage records which ways of growing the window a program took, so
// the differential test can assert that its programs reach all of them.
type windowCoverage struct {
	step1, step2 bool // Bump grew the window to the first / second step
	bumpFull     bool // Bump outgrew the second step and committed the region
	commitAll    bool // an explicit CommitAll flattened a partial window
	resetKept    bool // ResetNursery ran on a partial window that held data
	walkedPast   bool // the object walk stepped past a promoted-away object in a partial window

	// The same for the chunk's window, which Chunk.Bump grows.
	chunkStep1, chunkStep2, chunkFull bool
	scanGrew                          bool // a ScanObject visit grew the window of the chunk being scanned
	resetEmpty                        bool // a chunk that was never bumped was reset for reuse
}

// windowOps is the number of opcodes a program byte selects from.
const windowOps = 11

// windowSizes are the region sizes a program can pick: one whose first step
// is two words, a non-power-of-two, and one large enough for
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
// with abandoned arrays poisoned and kept, the other committed whole before the
// first operation — and returns a description of the first difference, or "".
// prog[0] picks the local region size (the chunk has twice as many words);
// after it each operation is an opcode byte and two argument bytes:
//
//	0-2  Bump a raw or vector object of a small / medium / large payload
//	     (skipped when the nursery cannot hold it)
//	3    Store to a payload word of an earlier object
//	4    write through the Payload slice of an earlier object
//	5    SetHeader of an earlier object (same length, other ID)
//	6    ResetNursery (forgets the objects, as a collection would)
//	7    CommitAll
//	8    promote an earlier object away: copy it into the chunk and leave a
//	     forwarding word in its header's place (skipped once the chunk is full)
//	9    bump a vector into the chunk and ScanObject it with a visit that
//	     first bumps a filler into the same chunk, past the end of its window
//	     when there is room, and rewrites every slot; the rewrites must land
//	10   reset the chunk for reuse, as the chunk manager does on release
//	     (skipped while a local object is forwarded into it)
//
// After every operation both heaps must agree on the layout, on every word
// of the allocated extent, on every object's header and payload, and on the
// object walk of the extent — which must frame exactly the objects
// allocated, in order, stepping past the promoted-away ones by their copies'
// lengths — and the windowed region must keep its invariants: a window of
// one of the three lengths that covers the extent, uncommitted words on
// either side of it that panic when read, and no way back from the flat
// layout. The chunks must agree on every word and the walk below the bump
// pointer, and the windowed chunk's window must be based at 0, one of the
// steps, never shrink, and cover the bump pointer. No write may have landed
// in an abandoned array (Space.CheckDetached). The growth paths the program
// took are recorded in cov.
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
	flat.Region.CommitAll()
	fchunk.Region.CommitAll()
	if n, m := len(win.Region.Words), len(wchunk.Region.Words); n != 0 || m != 0 {
		return fmt.Sprintf("fresh heap and chunk have %d and %d words committed", n, m)
	}
	chunkLen := 0
	descs := NewTable()

	type object struct {
		a   Addr
		n   int
		fwd bool // promoted away: the header word is a forwarding word
	}
	var objs []object
	wasFlat := false
	value := uint64(0x9E3779B97F4A7C15)

	for pc := 1; pc+2 < len(prog); pc += 3 {
		op, x, y := prog[pc]%windowOps, int(prog[pc+1]), int(prog[pc+2])
		at := fmt.Sprintf("op %d (%d %d %d)", pc/3, op, x, y)
		r := win.Region
		lenBefore := len(r.Words)
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
			switch grown := len(r.Words); {
			case grown == lenBefore:
			case grown == size/windowStep1:
				cov.step1 = true
			case grown == size/windowStep2:
				cov.step2 = true
			default:
				cov.bumpFull = true
			}
		case 3, 4, 5:
			if len(objs) == 0 {
				break
			}
			o := &objs[x%len(objs)]
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
			if lenBefore != 0 && lenBefore != size && win.Alloc > win.NurseryStart {
				cov.resetKept = true
			}
			win.ResetNursery()
			flat.ResetNursery()
			objs = objs[:0]
		case 7:
			if lenBefore != size {
				cov.commitAll = true
			}
			win.Region.CommitAll()
		case 8:
			if len(objs) == 0 {
				break
			}
			o := &objs[x%len(objs)]
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
			if slices.ContainsFunc(objs, func(o object) bool { return o.fwd }) {
				break
			}
			if len(wchunk.Region.Words) == 0 {
				cov.resetEmpty = true
			}
			wchunk.reset(0, true)
			fchunk.reset(0, true)
		}
		if err := ws.CheckDetached(); err != nil {
			return fmt.Sprintf("%s: %v", at, err)
		}

		// The chunk: its window, then every word and the walk below Top.
		cr := wchunk.Region
		switch n := len(cr.Words); {
		case cr.Base != 0:
			return fmt.Sprintf("%s: chunk window based at %d", at, cr.Base)
		case n != 0 && n != cr.Size/windowStep1 && n != cr.Size/windowStep2 && n != cr.Size:
			return fmt.Sprintf("%s: chunk window of %d words is none of the steps of a %d-word region", at, n, cr.Size)
		case n < chunkLen:
			return fmt.Sprintf("%s: chunk window shrank from %d to %d words", at, chunkLen, n)
		case wchunk.Top > max(n, 1):
			return fmt.Sprintf("%s: chunk window of %d words does not cover top %d", at, n, wchunk.Top)
		case n < cr.Size && !panics(func() { ws.Load(MakeAddr(cr.ID, n)) }):
			return fmt.Sprintf("%s: reading uncommitted chunk word %d did not panic", at, n)
		case n == chunkLen:
		case n == cr.Size/windowStep1:
			cov.chunkStep1 = true
		case n == cr.Size/windowStep2:
			cov.chunkStep2 = true
		default:
			cov.chunkFull = true
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
		if win.NurseryStart != flat.NurseryStart || win.Alloc != flat.Alloc || win.Limit != flat.Limit || win.OldTop != flat.OldTop {
			return fmt.Sprintf("%s: layout nursery=%d alloc=%d limit=%d oldTop=%d windowed, %d %d %d %d flat", at,
				win.NurseryStart, win.Alloc, win.Limit, win.OldTop,
				flat.NurseryStart, flat.Alloc, flat.Limit, flat.OldTop)
		}
		if err := win.CheckLayout(); err != nil {
			return fmt.Sprintf("%s: %v", at, err)
		}

		// Window invariants.
		lo, hi := r.Base, r.Base+len(r.Words)
		switch len(r.Words) {
		case size:
			if r.Base != 0 {
				return fmt.Sprintf("%s: whole region based at %d", at, r.Base)
			}
			wasFlat = true
		case 0, size / windowStep1, size / windowStep2:
			if wasFlat {
				return fmt.Sprintf("%s: flat region went back to a window of %d words", at, len(r.Words))
			}
			if r.Base != win.NurseryStart {
				return fmt.Sprintf("%s: window based at %d, nursery starts at %d", at, r.Base, win.NurseryStart)
			}
			if win.Alloc > hi || hi > size {
				return fmt.Sprintf("%s: window [%d,%d) does not cover the extent up to %d inside %d words", at, lo, hi, win.Alloc, size)
			}
			for _, w := range []int{lo - 1, hi} {
				if w < size && !panics(func() { ws.Load(MakeAddr(r.ID, w)) }) {
					return fmt.Sprintf("%s: reading uncommitted word %d outside [%d,%d) did not panic", at, w, lo, hi)
				}
			}
		default:
			return fmt.Sprintf("%s: window of %d words is none of the steps of a %d-word region", at, len(r.Words), size)
		}
		if got, want := ws.CommittedWords(RegionLocal), len(r.Words); got != want {
			return fmt.Sprintf("%s: CommittedWords = %d, want %d", at, got, want)
		}

		// Contents: every word of the extent, then every object through
		// the object accessors.
		for w := win.NurseryStart; w < win.Alloc; w++ {
			a := MakeAddr(r.ID, w)
			if g, f := ws.Load(a), fs.Load(a); g != f {
				return fmt.Sprintf("%s: word %d = %#x windowed, %#x flat", at, w, g, f)
			}
		}
		for _, o := range objs {
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

		// The object walk of the extent, against the flat twin's and
		// against the objects allocated.
		ww, fw := r.Walk(win.NurseryStart, win.Alloc), flat.Region.Walk(flat.NurseryStart, flat.Alloc)
		for i := 0; ; i++ {
			wa, wh, wok := ww.Next()
			fa, fh, fok := fw.Next()
			if wa != fa || wh != fh || wok != fok {
				return fmt.Sprintf("%s: walk step %d framed %v %#x %v windowed, %v %#x %v flat", at, i, wa, wh, wok, fa, fh, fok)
			}
			if !wok {
				if i != len(objs) {
					return fmt.Sprintf("%s: walk framed %d objects, %d allocated", at, i, len(objs))
				}
				break
			}
			if i >= len(objs) || wa != objs[i].a || IsHeader(wh) == objs[i].fwd {
				return fmt.Sprintf("%s: walk step %d framed %v (header %#x), allocated %+v", at, i, wa, wh, objs[min(i, len(objs)-1)])
			}
			if objs[i].fwd && i+1 < len(objs) && len(r.Words) != size {
				cov.walkedPast = true
			}
		}
	}
	return ""
}

// windowEdgeCases are hand-written programs for the corners: nothing
// allocated, objects that end exactly on and one past each step, one object
// that skips both steps, a commit of an empty window, a nursery reset
// between the steps, the reuse of a chunk that was never bumped, and scans
// that grow the chunk they scan.
func windowEdgeCases() [][]byte {
	big := byte(2) // windowSizes[2] = 4096: steps of 64 and 256 words, large payload unit 8
	return [][]byte{
		{big},
		{big, 7, 0, 0, 0, 3, 0},
		{big, 1, 63, 0, 0, 0, 0}, // 64 words: exactly the first step
		{big, 1, 63, 0, 0, 0, 0, 1, 190, 1, 0, 0, 0}, // ... then exactly the second
		{big, 1, 64, 0},                                // one past the first step
		{big, 1, 255, 0, 1, 255, 1, 3, 0, 9},           // straight to the second step, then past it
		{big, 2, 200, 0, 3, 0, 5},                      // one 1600-word object skips both steps
		{big, 0, 3, 0, 4, 0, 1, 7, 0, 0, 4, 0, 2},      // CommitAll under a live payload
		{big, 1, 100, 0, 6, 0, 0, 1, 40, 1, 1, 250, 0}, // reset between the steps
		{0, 0, 1, 0, 0, 3, 1, 1, 30, 0},                // 128 words: steps of 2 and 8
		{1, 1, 14, 0, 1, 46, 1, 1, 200, 0},             // 1000 words: steps of 15 and 62
		// Promote the middle object of three, then the first, away; then
		// un-forward the middle one.
		{big, 0, 3, 0, 0, 5, 1, 0, 0, 0, 8, 1, 0, 8, 0, 0, 5, 1, 1},
		// Release and reuse a chunk that was never bumped, then promote into
		// it, and release it again with its window kept.
		{big, 10, 0, 0, 0, 3, 0, 8, 0, 0, 6, 0, 0, 10, 0, 0, 0, 2, 0, 8, 0, 0},
		// Three scans whose visits bump the chunk they scan: from an empty
		// window past the first step (128 of 8192 words), past the second
		// (512), and once the chunk is whole.
		{big, 9, 7, 0, 9, 7, 1, 9, 7, 2},
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
			if op := prog[pc] % windowOps; (op == 2 || op == 7) && rng.Intn(8) != 0 {
				prog[pc] = byte(rng.Intn(2)) * 3
			}
		}
		run(fmt.Sprintf("seed %d", seed), prog)
	}
	if !cov.step1 || !cov.step2 || !cov.bumpFull || !cov.commitAll || !cov.resetKept || !cov.walkedPast ||
		!cov.chunkStep1 || !cov.chunkStep2 || !cov.chunkFull || !cov.scanGrew || !cov.resetEmpty {
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
// grows the window, and across CommitAll: under Space.Debug the detached
// slice must read poison, not the data the heap still holds, and a write
// through it must fail CheckDetached.
func TestStaleAliasIsPoisoned(t *testing.T) {
	s := NewSpace(mempage.NewTable(mempage.PolicyLocal, 1))
	s.Debug = true
	lh := NewLocalHeap(s.NewRegion(RegionLocal, 0, 4096, 0))
	a := lh.Bump(MakeHeader(IDRaw, 2))
	stale := s.Payload(a)
	stale[0], stale[1] = 7, 8

	lh.Bump(MakeHeader(IDRaw, 100)) // outgrows the 64-word first step
	if stale[0] != poisonWord || stale[1] != poisonWord {
		t.Fatalf("slice held across a growing allocation reads %#x %#x, want poison", stale[0], stale[1])
	}
	live := s.Payload(a)
	if live[0] != 7 || live[1] != 8 {
		t.Fatalf("heap lost the object's data across the step: %#x %#x", live[0], live[1])
	}

	lh.Region.CommitAll()
	if live[0] != poisonWord {
		t.Fatalf("slice held across CommitAll reads %#x, want poison", live[0])
	}
	if p := s.Payload(a); p[0] != 7 || p[1] != 8 {
		t.Fatalf("heap lost the object's data across CommitAll: %#x %#x", p[0], p[1])
	}
	if err := s.CheckDetached(); err != nil {
		t.Fatalf("reads alone reported as a detached write: %v", err)
	}
	live[1] = 9 // lost: the heap holds the object elsewhere now
	if err := s.CheckDetached(); err == nil {
		t.Fatal("a write through a detached slice went unreported")
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
	b := lh2.Bump(MakeHeader(IDRaw, 1))
	old := s.Payload(b)
	old[0] = 9
	lh2.Region.CommitAll()
	if old[0] != 9 {
		t.Fatalf("abandoned array rewritten without Debug: %#x", old[0])
	}
}
