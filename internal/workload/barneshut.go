package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/heap"
)

// Barnes-Hut (§4.1): "a classic N-body problem solver. Each iteration has
// two phases. In the first phase, a quadtree is constructed from a sequence
// of mass points. The second phase then uses this tree to accelerate the
// computation of the gravitational force on the bodies... 20 iterations
// over 400,000 particles generated in a random Plummer distribution."
//
// The tree build is sequential (the paper attributes the benchmark's
// scaling plateau to this sequential portion, §4.2), runs on vproc 0, and
// the finished tree is promoted so force tasks on other vprocs can read it
// — concentrating tree traffic on the builder's node under the local
// placement policy, which is the sharing effect the paper observes.

const (
	// bhBaseBodies is the default body count; the paper uses 400,000.
	bhBaseBodies = 2048
	// bhBaseIters is the default iteration count; the paper uses 20.
	bhBaseIters = 3
	// bhTheta is the opening criterion.
	bhTheta = 0.5
	// bhDT is the integration step.
	bhDT = 0.025
	// bhVisitNs is the modelled compute per visited tree cell.
	bhVisitNs = 18
	// bhCachedLevels top tree levels, touched by every body of every task,
	// stay resident in each node's cache; the force traversal charges
	// deeper cells as memory traffic against the tree's home node — the
	// shared-data pattern that limits this benchmark.
	bhCachedLevels = 3
)

// Body layout (raw object): x, y, vx, vy, mass.
const (
	bodyX = iota
	bodyY
	bodyVX
	bodyVY
	bodyMass
	bodyWords
)

// Quadtree cell (mixed object): four child pointers, then raw center of
// mass / total mass / geometry.
const (
	cellQ0 = iota // children: quadrants 0-3 (pointer fields)
	cellQ1
	cellQ2
	cellQ3
	cellCX   // center of mass x (raw)
	cellCY   // center of mass y (raw)
	cellMass // total mass (raw)
	cellMidX // geometric center (raw)
	cellMidY
	cellHalf // half-width (raw)
	cellBody // pointer to a single body for leaf cells, nil for internal
	cellWords
)

// BHDescs holds descriptor IDs.
type BHDescs struct{ Cell uint16 }

// RegisterBHDescs installs the quadtree descriptors.
func RegisterBHDescs(rt *core.Runtime) BHDescs {
	return BHDescs{
		Cell: rt.Descs.Register("bh-cell", cellWords, []int{cellQ0, cellQ1, cellQ2, cellQ3, cellBody}),
	}
}

// plummer generates the deterministic Plummer-distribution bodies.
func plummer(seed uint64, n int) [][bodyWords]float64 {
	rng := newRand(seed ^ 0xb41e5)
	bodies := make([][bodyWords]float64, n)
	for i := range bodies {
		// Plummer radial profile: r = a / sqrt(u^(-2/3) - 1).
		u := rng.Float()
		if u < 1e-6 {
			u = 1e-6
		}
		r := 1.0 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
		if r > 8 {
			r = 8
		}
		phi := 2 * math.Pi * rng.Float()
		x := r * math.Cos(phi)
		y := r * math.Sin(phi)
		// Circular-ish velocities with jitter.
		v := 0.3 * math.Sqrt(1/(1+r*r))
		bodies[i] = [bodyWords]float64{
			x, y,
			-v*math.Sin(phi) + 0.05*(rng.Float()-0.5),
			v*math.Cos(phi) + 0.05*(rng.Float()-0.5),
			1.0 / float64(n),
		}
	}
	return bodies
}

// RunBarnesHut executes the benchmark; Check folds the final positions.
func RunBarnesHut(rt *core.Runtime, scale float64) Result {
	return runBarnesHut(rt, scale, new(bhVisits).stepBodyStepped)
}

// runBarnesHut runs the benchmark with step as the force kernel: step moves
// body i of env's current vector (env 0) through the tree (env 1) into the
// next vector (env 2).
func runBarnesHut(rt *core.Runtime, scale float64, step func(vp *core.VProc, env core.Env, i int)) Result {
	n := scaled(bhBaseBodies, scale)
	iters := bhBaseIters
	d := RegisterBHDescs(rt)
	var check uint64
	var t0, t1 int64
	rt.Run(func(vp *core.VProc) {
		host := plummer(rt.Cfg.Seed, n)
		cur := vp.AllocGlobalVectorN(n)
		curSlot := vp.PushRoot(cur)
		// Distribute body construction so body data spreads across
		// nodes (the runtime invariant: data is local to the vproc
		// that created it until shared).
		vp.ParallelRange(0, n, rowGrain(n, rt.Cfg.NumVProcs),
			[]heap.Addr{vp.Root(curSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for i := lo; i < hi; i++ {
					b := host[i]
					w := make([]uint64, bodyWords)
					for k, f := range b {
						w[k] = f2w(f)
					}
					body := vp.AllocRaw(w)
					bs := vp.PushRoot(body)
					vp.StoreGlobalPtr(env.Get(vp, 0), i, bs)
					vp.PopRoots(1)
				}
			})

		t0 = vp.Now() // timed region: all iterations (tree builds + forces)
		for it := 0; it < iters; it++ {
			// Phase 1 (sequential, on vproc 0): build the quadtree
			// in the local heap, then promote it for sharing.
			rootSlot := vp.PushRoot(buildQuadtree(vp, d, curSlot, n))
			vp.PromoteRoot(rootSlot)

			// Phase 2 (parallel): forces + leapfrog update into a
			// fresh body vector.
			next := vp.AllocGlobalVectorN(n)
			nextSlot := vp.PushRoot(next)
			vp.ParallelRange(0, n, rowGrain(n, rt.Cfg.NumVProcs),
				[]heap.Addr{vp.Root(curSlot), vp.Root(rootSlot), vp.Root(nextSlot)},
				func(vp *core.VProc, lo, hi int, env core.Env) {
					for i := lo; i < hi; i++ {
						step(vp, env, i)
					}
				})
			vp.SetRoot(curSlot, vp.Root(nextSlot))
			vp.PopRoots(2)
		}
		t1 = vp.Now()

		for i := 0; i < n; i++ {
			b := vp.LoadPtr(vp.Root(curSlot), i)
			p := vp.ReadBlock(b)
			check = fnv1a(check, p[bodyX])
			check = fnv1a(check, p[bodyY])
		}
		vp.PopRoots(1)
	})
	return Result{ElapsedNs: t1 - t0, Check: check, Stats: rt.TotalStats()}
}

// buildQuadtree builds the tree over the bodies in curSlot; sequential on
// vproc 0. The build is purely functional (path-copying inserts), as in the
// PML original: no pointer field is ever mutated, so the heap invariants
// hold at every allocation point. Mass summarization afterwards writes only
// raw (non-pointer) fields in place, which is invisible to the collector.
func buildQuadtree(vp *core.VProc, d BHDescs, curSlot int, n int) heap.Addr {
	// Bounding square.
	minX, minY, maxX, maxY := 1e30, 1e30, -1e30, -1e30
	for i := 0; i < n; i++ {
		b := vp.LoadPtr(vp.Root(curSlot), i)
		p := vp.ReadBlock(b)
		x, y := w2f(p[bodyX]), w2f(p[bodyY])
		minX, minY = math.Min(minX, x), math.Min(minY, y)
		maxX, maxY = math.Max(maxX, x), math.Max(maxY, y)
	}
	half := math.Max(maxX-minX, maxY-minY)/2 + 1e-9
	midX, midY := (minX+maxX)/2, (minY+maxY)/2

	rootSlot := vp.PushRoot(newCell(vp, d, midX, midY, half, -1))
	for i := 0; i < n; i++ {
		body := vp.LoadPtr(vp.Root(curSlot), i)
		bs := vp.PushRoot(body)
		nr := insertBody(vp, d, rootSlot, bs, 0)
		vp.PopRoots(1)
		vp.SetRoot(rootSlot, nr)
		vp.Compute(bhVisitNs)
	}
	summarize(vp, vp.Root(rootSlot))
	out := vp.Root(rootSlot)
	vp.PopRoots(1)
	return out
}

// bhMaxObject is the largest object at a scale: the body tables hold a word
// per body; a body holds bodyWords and a cell cellWords.
func bhMaxObject(scale float64) int { return max(scaled(bhBaseBodies, scale), bodyWords, cellWords) }

// cellGeom is a cell's raw fields: its square's centre and half-width.
func cellGeom(midX, midY, half float64) [3]core.RawField {
	return [3]core.RawField{{Off: cellMidX, Word: f2w(midX)}, {Off: cellMidY, Word: f2w(midY)}, {Off: cellHalf, Word: f2w(half)}}
}

// newCell allocates an empty cell; bodySlot < 0 means no body.
func newCell(vp *core.VProc, d BHDescs, midX, midY, half float64, bodySlot int) heap.Addr {
	geom := cellGeom(midX, midY, half)
	if bodySlot < 0 {
		return vp.AllocMixed(d.Cell, geom[:], nil)
	}
	body := [1]core.PtrField{{Off: cellBody, Slot: bodySlot}}
	return vp.AllocMixed(d.Cell, geom[:], body[:])
}

// quadrantOf picks the child quadrant for a position.
func quadrantOf(midX, midY, x, y float64) int {
	q := 0
	if x >= midX {
		q |= 1
	}
	if y >= midY {
		q |= 2
	}
	return q
}

// bodyPos reads the position of the body held in a root slot.
func bodyPos(vp *core.VProc, bs int) (float64, float64) {
	p := vp.ReadBlockCached(vp.Resolve(vp.Root(bs)))
	return w2f(p[bodyX]), w2f(p[bodyY])
}

// childGeom returns the geometry of quadrant q of a cell.
func childGeom(midX, midY, half float64, q int) (float64, float64, float64) {
	h := half / 2
	cx, cy := midX-h, midY-h
	if q&1 != 0 {
		cx = midX + h
	}
	if q&2 != 0 {
		cy = midY + h
	}
	return cx, cy, h
}

// bhMaxDepth bounds tree depth (distinct positions terminate far earlier).
const bhMaxDepth = 64

// insertBody functionally inserts the body in root slot bs into the cell in
// root slot cellSlot, returning the new cell (unrooted; the caller must
// root it before its next allocation).
func insertBody(vp *core.VProc, d BHDescs, cellSlot, bs int, depth int) heap.Addr {
	if depth > bhMaxDepth {
		panic("workload: barnes-hut insert exceeded max depth (coincident bodies?)")
	}
	cell := vp.Resolve(vp.Root(cellSlot))
	vp.SetRoot(cellSlot, cell)
	p := vp.ReadBlockCached(cell)
	midX, midY := w2f(p[cellMidX]), w2f(p[cellMidY])
	half := w2f(p[cellHalf])
	existing := heap.Addr(p[cellBody])
	hasChildren := p[cellQ0] != 0 || p[cellQ1] != 0 || p[cellQ2] != 0 || p[cellQ3] != 0
	vp.Compute(bhVisitNs)

	if !hasChildren && existing == 0 {
		// Empty leaf: a fresh leaf carrying the body.
		return newCell(vp, d, midX, midY, half, bs)
	}
	if !hasChildren {
		// Occupied leaf: split. Build an internal cell whose quadrant
		// child holds the existing body one level down, then insert
		// the new body into that internal cell.
		exS := vp.PushRoot(existing)
		exX, exY := bodyPos(vp, exS)
		q := quadrantOf(midX, midY, exX, exY)
		cx, cy, h := childGeom(midX, midY, half, q)
		childS := vp.PushRoot(newCell(vp, d, cx, cy, h, exS))
		geom := cellGeom(midX, midY, half)
		child := [1]core.PtrField{{Off: cellQ0 + q, Slot: childS}}
		internalS := vp.PushRoot(vp.AllocMixed(d.Cell, geom[:], child[:]))
		out := insertBody(vp, d, internalS, bs, depth+1)
		vp.PopRoots(3)
		return out
	}
	// Internal cell: insert into (a copy of) the right child, then copy
	// this cell with that child replaced.
	x, y := bodyPos(vp, bs)
	q := quadrantOf(midX, midY, x, y)
	var childS int
	if c := heap.Addr(p[cellQ0+q]); c != 0 {
		childS = vp.PushRoot(c)
	} else {
		cx, cy, h := childGeom(midX, midY, half, q)
		childS = vp.PushRoot(newCell(vp, d, cx, cy, h, -1))
	}
	nc := insertBody(vp, d, childS, bs, depth+1)
	vp.SetRoot(childS, nc)

	// Re-read the (possibly moved) original cell and assemble the copy.
	cell = vp.Resolve(vp.Root(cellSlot))
	p = vp.ReadBlockCached(cell)
	var ptrs [4]core.PtrField
	ptrs[0] = core.PtrField{Off: cellQ0 + q, Slot: childS}
	pushed := 1 // childS
	for k := 0; k < 4; k++ {
		if k == q {
			continue
		}
		if c := heap.Addr(p[cellQ0+k]); c != 0 {
			ptrs[pushed] = core.PtrField{Off: cellQ0 + k, Slot: vp.PushRoot(c)}
			pushed++
		}
	}
	geom := cellGeom(midX, midY, half)
	out := vp.AllocMixed(d.Cell, geom[:], ptrs[:pushed])
	vp.PopRoots(pushed)
	return out
}

// summarize computes centers of mass bottom-up; no allocation, so plain
// addresses are stable.
func summarize(vp *core.VProc, cell heap.Addr) (mx, my, m float64) {
	cell = vp.Resolve(cell)
	p := vp.ReadBlockCached(cell)
	if b := heap.Addr(p[cellBody]); b != 0 {
		bp := vp.ReadBlockCached(vp.Resolve(b))
		m = w2f(bp[bodyMass])
		mx, my = w2f(bp[bodyX])*m, w2f(bp[bodyY])*m
	}
	for q := 0; q < 4; q++ {
		if c := heap.Addr(p[cellQ0+q]); c != 0 {
			cx, cy, cm := summarize(vp, c)
			mx, my, m = mx+cx, my+cy, m+cm
		}
	}
	p[cellCX] = f2w(safeDiv(mx, m))
	p[cellCY] = f2w(safeDiv(my, m))
	p[cellMass] = f2w(m)
	vp.Compute(bhVisitNs)
	return mx, my, m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bhCell folds one tree cell, payload p, into the force on the body at
// (x, y): an empty cell adds nothing; a leaf, or a cell small enough for its
// distance (the opening criterion), adds its pull to *ax, *ay; any other
// cell reports open, and the traversal visits its children instead.
func bhCell(p []uint64, x, y float64, ax, ay *float64) (open bool) {
	m := w2f(p[cellMass])
	if m == 0 {
		return false
	}
	cx, cy := w2f(p[cellCX]), w2f(p[cellCY])
	dx, dy := cx-x, cy-y
	dist2 := dx*dx + dy*dy + 1e-4
	size := 2 * w2f(p[cellHalf])
	hasChildren := p[cellQ0] != 0 || p[cellQ1] != 0 || p[cellQ2] != 0 || p[cellQ3] != 0
	if !hasChildren || size*size < bhTheta*bhTheta*dist2 {
		inv := 1 / math.Sqrt(dist2)
		f := m * inv * inv * inv
		*ax += f * dx
		*ay += f * dy
		return false
	}
	return true
}

// bhLeapfrog advances body bp by one step under acceleration (ax, ay) and
// publishes the moved body as element i of the next vector (env 2). It
// allocates — a safepoint — so every force kernel runs it in direct style
// once its traversal is done.
func bhLeapfrog(vp *core.VProc, env core.Env, i int, bp []uint64, ax, ay float64) {
	vx := w2f(bp[bodyVX]) + ax*bhDT
	vy := w2f(bp[bodyVY]) + ay*bhDT
	nx := w2f(bp[bodyX]) + vx*bhDT
	ny := w2f(bp[bodyY]) + vy*bhDT
	ns := vp.PushRoot(vp.AllocRaw([]uint64{f2w(nx), f2w(ny), f2w(vx), f2w(vy), bp[bodyMass]}))
	vp.StoreGlobalPtr(env.Get(vp, 2), i, ns)
	vp.PopRoots(1)
}

// bhVisits is the force kernel RunBarnesHut runs: each vproc's visit state,
// reused across the bodies it moves, so that a visit allocates nothing once
// its vproc's frame stack has grown. A vproc runs one visit at a time, and
// bhLeapfrog reads the copied body before it allocates.
type bhVisits []bhVisit

// bhVisit is one body's force visit as a step-function state machine: the
// body-pointer load, the body read, then the tree traversal with the
// recursion flattened to a frame stack, so the finely interleaved turns of
// many vprocs execute as inline calls on the token holder's stack. Its
// recursive direct-style reference, one Advance per charge, is stepBody in
// barneshut_direct_test.go.
type bhVisit struct {
	vp     *core.VProc
	env    core.Env
	i      int
	phase  int
	body   heap.Addr
	bp     []uint64 // the body, copied out: the tail allocates
	stack  []bhFrame
	x, y   float64
	ax, ay float64
	turn   func() (int64, bool) // step, bound once
}

// bhFrame is a tree cell the traversal still has to visit.
type bhFrame struct {
	cell  heap.Addr
	depth int
}

// stepBodyStepped computes the force on body i from the (global, promoted)
// tree and writes the advanced body into the next vector.
func (vs *bhVisits) stepBodyStepped(vp *core.VProc, env core.Env, i int) {
	if len(*vs) == 0 {
		*vs = make(bhVisits, len(vp.Runtime().VProcs))
	}
	v := &(*vs)[vp.ID]
	if v.turn == nil {
		v.turn = v.step
	}
	v.vp, v.env, v.i, v.phase = vp, env, i, 0
	v.bp, v.stack, v.ax, v.ay = v.bp[:0], v.stack[:0], 0, 0
	vp.RunSteps(v.turn)
	bhLeapfrog(vp, env, i, v.bp, v.ax, v.ay)
}

// step is one turn of the visit.
func (v *bhVisit) step() (int64, bool) {
	vp, env := v.vp, v.env
	switch v.phase {
	case 0: // the body-pointer load from the current vector
		var c int64
		v.body, c = vp.CostLoadPtr(env.Get(vp, 0), v.i)
		v.phase = 1
		return c, false
	case 1: // the streamed body read
		p, c := vp.CostReadBlock(v.body, 0)
		v.bp = append(v.bp, p...)
		v.x, v.y = w2f(v.bp[bodyX]), w2f(v.bp[bodyY])
		v.stack = append(v.stack, bhFrame{env.Get(vp, 1), 0})
		v.phase = 2
		return c, false
	}
	if len(v.stack) == 0 {
		return 0, true
	}
	f := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	var p []uint64
	var c int64
	if f.depth < bhCachedLevels {
		p, c = vp.CostReadBlockCached(f.cell, bhVisitNs)
	} else {
		p, c = vp.CostReadBlock(f.cell, bhVisitNs)
	}
	// Push the children in reverse so they pop in quadrant order: the
	// recursion's pre-order.
	if bhCell(p, v.x, v.y, &v.ax, &v.ay) {
		for q := 3; q >= 0; q-- {
			if kid := heap.Addr(p[cellQ0+q]); kid != 0 {
				v.stack = append(v.stack, bhFrame{kid, f.depth + 1})
			}
		}
	}
	return c, false
}
