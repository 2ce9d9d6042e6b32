package heap

import "fmt"

// Chunk is one allocation unit of the global heap (§3.1): "The global heap
// is organized into a collection of chunks. Each vproc has a current chunk
// that it uses when it needs to allocate in or promote an object to the
// global heap."
//
// A chunk's storage is committed as it fills: its region's window is based
// at 0 and Bump grows it ahead of Top in the same steps as a local heap's
// (see Region), unless CommitWhole committed it whole at its fetch.
// Everything a chunk holds lies below Top, inside the window.
type Chunk struct {
	Region *Region
	// Top is the bump pointer (next free word index). Word 0 is unused.
	Top int
	// Node is the NUMA node this chunk's memory lives on; the chunk
	// manager preserves node affinity when reusing chunks.
	Node int
	// Owner is the vproc currently allocating into the chunk, or -1.
	Owner int
	// FromSpace marks the chunk as condemned during a global collection.
	FromSpace bool
	// Scan is the Cheney scan pointer used while the chunk is in
	// to-space during a global collection.
	Scan int
}

// CanAlloc reports whether a payload of the given size (plus header) fits.
func (c *Chunk) CanAlloc(payloadWords int) bool {
	return c.Top+payloadWords+1 <= c.Region.Size
}

// CommitWhole commits the chunk's storage whole, keeping what it holds. The
// runtime calls it on a chunk fetched to replace a vproc's full chunk: that
// chunk is likely to fill too, and growing it through the steps would
// allocate 16.4 % more than committing it at once.
func (c *Chunk) CommitWhole() { c.Region.commitWhole() }

// Bump allocates an object with the given header and returns its address.
// The payload reads zero: words above Top are zero from the window's growth
// or the chunk's last reset.
func (c *Chunk) Bump(header uint64) Addr {
	n := HeaderLen(header)
	if !c.CanAlloc(n) {
		panic(fmt.Sprintf("heap: chunk overflow allocating %d words (top=%d cap=%d)", n, c.Top, c.Region.Size))
	}
	r := c.Region
	end := c.Top + n + 1
	if end > len(r.Words) {
		r.reserve(end)
	}
	r.Words[c.Top] = header
	a := MakeAddr(r.ID, c.Top+1)
	c.Top = end
	return a
}

// reset prepares a recycled chunk for reuse. With debug set it asserts that
// the committed words above the bump pointer, which reset does not clear, are
// zero.
func (c *Chunk) reset(owner int, debug bool) {
	// Zero the words so stale pointers cannot leak across reuse. The
	// cost of this is charged by the runtime layer. Every chunk write
	// lands below the bump pointer (Bump hands out [Top, Top+n+1) and
	// nothing else is addressable), so the rest of the window is still zero
	// from its growth or the previous reset. The window is kept: a chunk
	// that was never bumped has none, and Top is past it.
	words := c.Region.Words
	used := min(c.Top, len(words))
	clear(words[:used])
	if debug {
		for i, w := range words[used:] {
			if w != 0 {
				panic(fmt.Sprintf("heap: chunk r%d word %d above top %d holds %#x", c.Region.ID, used+i, c.Top, w))
			}
		}
	}
	c.Top = 1
	c.Owner = owner
	c.FromSpace = false
	c.Scan = 1
}
