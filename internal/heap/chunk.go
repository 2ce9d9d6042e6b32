package heap

import "fmt"

// Chunk is one allocation unit of the global heap (§3.1): "The global heap
// is organized into a collection of chunks. Each vproc has a current chunk
// that it uses when it needs to allocate in or promote an object to the
// global heap."
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
	return c.Top+payloadWords+1 <= len(c.Region.Words)
}

// Bump allocates an object with the given header and returns its address.
func (c *Chunk) Bump(header uint64) Addr {
	n := HeaderLen(header)
	if !c.CanAlloc(n) {
		panic(fmt.Sprintf("heap: chunk overflow allocating %d words (top=%d cap=%d)", n, c.Top, len(c.Region.Words)))
	}
	c.Region.Words[c.Top] = header
	a := MakeAddr(c.Region.ID, c.Top+1)
	c.Top += n + 1
	return a
}

// reset prepares a recycled chunk for reuse. With debug set it asserts that
// the words above the bump pointer, which reset does not clear, are zero.
func (c *Chunk) reset(owner int, debug bool) {
	// Zero the words so stale pointers cannot leak across reuse. The
	// cost of this is charged by the runtime layer. Every chunk write
	// lands below the bump pointer (Bump hands out [Top, Top+n+1) and
	// nothing else is addressable), so [Top, cap) is still zero from the
	// chunk's creation or its previous reset.
	words := c.Region.Words
	clear(words[:c.Top])
	if debug {
		for i, w := range words[c.Top:] {
			if w != 0 {
				panic(fmt.Sprintf("heap: chunk r%d word %d above top %d holds %#x", c.Region.ID, c.Top+i, c.Top, w))
			}
		}
	}
	c.Top = 1
	c.Owner = owner
	c.FromSpace = false
	c.Scan = 1
}
