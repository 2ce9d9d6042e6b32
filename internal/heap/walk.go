package heap

// The collector's two heap traversals, declared once. Every collector and
// verifier that walks a heap area object by object does it through
// ObjectWalk, and every scanner that must be able to stop between two pointer
// slots of an object steps through them with SlotCursor (ScanObject is the
// callback form over the same PtrLayout). Both are plain values meant to live
// on the caller's stack or inside a larger cursor (core's heapSites).

// ObjectWalk is a resumable cursor over the objects laid out back to back in
// region words [lo, End). It is the one place that frames local-heap
// objects: a live object occupies its header's length, and an object a
// promotion moved away has left a forwarding word in the header's place and
// still occupies the length its copy records. It reads through Region.At,
// so a partially committed region walks like its fully committed twin.
type ObjectWalk struct {
	r *Region
	// cur is the header index of the object Next framed last (0 before the
	// first); its extent is read when Next steps past it, not when it is
	// framed, so a client may validate or rewrite a forwarding word first.
	cur int
	at  int
	// End bounds the walk. A Cheney scan, whose copies extend the range it
	// is walking, raises it between calls to Next.
	End int
}

// Walk returns a cursor over the objects in words [lo, hi) of r.
func (r *Region) Walk(lo, hi int) ObjectWalk {
	return ObjectWalk{r: r, at: lo, End: hi}
}

// Next frames the next object and returns its address and its header word;
// when !IsHeader(h) the object was promoted away and h is its forwarding
// word. ok is false once the range is exhausted.
func (w *ObjectWalk) Next() (obj Addr, h uint64, ok bool) {
	if w.cur != 0 {
		h := w.r.At(w.cur)
		if IsHeader(h) {
			w.at = w.cur + HeaderLen(h) + 1
		} else {
			w.at = w.cur + w.r.space.ObjectLen(ForwardTarget(h)) + 1
		}
	}
	if w.at >= w.End {
		w.cur = 0
		return 0, 0, false
	}
	w.cur = w.at
	return MakeAddr(w.r.ID, w.at+1), w.r.At(w.at), true
}

// SlotCursor is a resumable cursor over the pointer slots of one object, in
// PtrLayout order. The zero value has no slots.
type SlotCursor struct {
	payload []uint64
	offs    []int
	all     bool
	i       int
}

// Slots returns a cursor over the pointer slots of the live object at a,
// whose header is h. The cursor aliases the object's storage like Payload
// does; a raw object's storage is not touched at all.
func (s *Space) Slots(t *Table, a Addr, h uint64) SlotCursor {
	offs, all := PtrLayout(t, h)
	if !all && len(offs) == 0 {
		return SlotCursor{}
	}
	return SlotCursor{payload: s.Payload(a), offs: offs, all: all}
}

// Next returns the next pointer slot as a site the caller reads and may
// overwrite in place, or nil when the object has no more.
func (c *SlotCursor) Next() *Addr {
	off := c.i
	if c.all {
		if off >= len(c.payload) {
			return nil
		}
	} else {
		if off >= len(c.offs) {
			return nil
		}
		off = c.offs[off]
	}
	c.i++
	return (*Addr)(&c.payload[off])
}

// Slot returns the payload offset of the slot Next returned last.
func (c *SlotCursor) Slot() int {
	if c.all {
		return c.i - 1
	}
	return c.offs[c.i-1]
}

// ScanRange applies visit to every pointer slot of every live object in words
// [lo, hi) of r, as ScanObject does to one object's; objects promoted away
// are skipped.
func ScanRange(s *Space, t *Table, r *Region, lo, hi int, visit func(Addr) Addr) {
	each := func(_ int, p Addr) Addr { return visit(p) }
	for w := r.Walk(lo, hi); ; {
		obj, h, ok := w.Next()
		if !ok {
			return
		}
		if IsHeader(h) {
			ScanObject(s, t, obj, each)
		}
	}
}
