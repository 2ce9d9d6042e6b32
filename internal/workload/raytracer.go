package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/heap"
)

// Raytracer (§4.1): "renders a 512 x 512 image in parallel as a
// two-dimensional sequence... a simple ray tracer that does not use any
// acceleration data structures." Rows are independent and all intermediate
// data is row-local, so the paper reports near-ideal scaling on both
// machines. The scene here is a small set of spheres over a ground plane
// with one point light and hard shadows; the arithmetic is executed for
// real and charged to the virtual clock per ray.

// rtBaseDim is the default image dimension; the paper uses 512.
const rtBaseDim = 160

// vec3 is host-side float math; results land in the heap per pixel row.
type vec3 struct{ x, y, z float64 }

func (a vec3) add(b vec3) vec3 { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec3) sub(b vec3) vec3 { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) scale(s float64) vec3 {
	return vec3{float64(a.x * s), float64(a.y * s), float64(a.z * s)}
}
func (a vec3) dot(b vec3) float64 { return float64(a.x*b.x) + float64(a.y*b.y) + float64(a.z*b.z) }
func (a vec3) norm() vec3 {
	d := a.dot(a)
	if d == 0 {
		return a
	}
	// math.Sqrt is correctly rounded, and dot and scale round their products
	// so that no backend fuses them (scripts/fma-check.sh).
	return a.scale(1 / math.Sqrt(d))
}

type sphere struct {
	c   vec3
	r   float64
	col vec3
}

// rtScene returns the fixed scene.
func rtScene() []sphere {
	return []sphere{
		{vec3{0, 1.0, 4}, 1.0, vec3{0.9, 0.2, 0.2}},
		{vec3{-1.8, 0.6, 3.2}, 0.6, vec3{0.2, 0.9, 0.2}},
		{vec3{1.7, 0.8, 4.6}, 0.8, vec3{0.2, 0.3, 0.9}},
		{vec3{-0.7, 0.4, 2.4}, 0.4, vec3{0.9, 0.8, 0.2}},
		{vec3{0.9, 0.3, 2.8}, 0.3, vec3{0.8, 0.3, 0.8}},
		{vec3{-2.6, 1.3, 5.0}, 1.3, vec3{0.3, 0.8, 0.8}},
	}
}

var rtLight = vec3{-4, 6, 0}

// intersect returns the nearest hit parameter and sphere index, or -1.
func intersect(scene []sphere, o, d vec3) (float64, int) {
	bestT, best := 1e30, -1
	for i, s := range scene {
		oc := o.sub(s.c)
		b := oc.dot(d)
		c := oc.dot(oc) - float64(s.r*s.r)
		disc := float64(b*b) - c
		if disc <= 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t > 1e-4 && t < bestT {
			bestT, best = t, i
		}
	}
	return bestT, best
}

// shadePixel traces one primary ray and returns a quantized color word.
func shadePixel(scene []sphere, px, py, dim int) uint64 {
	u := (float64(px)/float64(dim))*2 - 1
	v := 1 - (float64(py)/float64(dim))*2
	o := vec3{0, 1.2, -1}
	dir := vec3{u, v * 0.9, 1.6}.norm()

	t, hit := intersect(scene, o, dir)
	var col vec3
	switch {
	case hit >= 0:
		p := o.add(dir.scale(t))
		nrm := p.sub(scene[hit].c).norm()
		l := rtLight.sub(p).norm()
		lam := nrm.dot(l)
		if lam < 0 {
			lam = 0
		}
		// Hard shadow.
		if _, sh := intersect(scene, p.add(nrm.scale(1e-3)), l); sh >= 0 {
			lam *= 0.15
		}
		col = scene[hit].col.scale(0.15 + float64(0.85*lam))
	case dir.y < 0:
		// Ground plane with a checker.
		tp := -(o.y) / dir.y
		p := o.add(dir.scale(tp))
		if (int(p.x+100)+int(p.z+100))%2 == 0 {
			col = vec3{0.75, 0.75, 0.75}
		} else {
			col = vec3{0.25, 0.25, 0.25}
		}
	default:
		col = vec3{0.5, 0.7, 0.95} // sky
	}
	q := func(f float64) uint64 {
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return uint64(float64(f * 255))
	}
	return q(col.x)<<16 | q(col.y)<<8 | q(col.z)
}

// rtRayCostNs is the modelled per-ray arithmetic; the rest of a ray's cost
// is the allocation of its intermediate tuples (PML's vector math is boxed,
// which is exactly why the memory system dominates functional workloads).
const rtRayCostNs = 150

// rtRayTempWords models the boxed intermediates (vectors, hit records)
// allocated while tracing one ray.
const rtRayTempWords = 24

// RunRaytracer executes the benchmark; Check folds the quantized image.
func RunRaytracer(rt *core.Runtime, scale float64) Result {
	dim := scaled(rtBaseDim, scale)
	scene := rtScene()
	var check uint64
	var t0, t1 int64
	rt.Run(func(vp *core.VProc) {
		img := vp.AllocGlobalVectorN(dim)
		imgSlot := vp.PushRoot(img)
		t0 = vp.Now()
		vp.ParallelRange(0, dim, 1,
			[]heap.Addr{vp.Root(imgSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for y := lo; y < hi; y++ {
					renderRow(vp, env, scene, y, dim)
				}
			})
		t1 = vp.Now()
		for y := 0; y < dim; y++ {
			row := vp.LoadPtr(vp.Root(imgSlot), y)
			for _, w := range vp.ReadBlock(row) {
				check = fnv1a(check, w)
			}
		}
		vp.PopRoots(1)
	})
	return Result{ElapsedNs: t1 - t0, Check: check, Stats: rt.TotalStats()}
}

// rtMaxObject is the largest object at a scale: the image's row table and
// each row hold dim words, a ray's temporaries rtRayTempWords.
func rtMaxObject(scale float64) int { return max(scaled(rtBaseDim, scale), rtRayTempWords) }

// renderRow traces one scanline, allocating per-pixel temporaries (the
// functional-language allocation behaviour the local heaps absorb) and one
// result row, then publishes the row.
func renderRow(vp *core.VProc, env core.Env, scene []sphere, y, dim int) {
	buf := make([]uint64, dim)
	for x := 0; x < dim; x++ {
		px := shadePixel(scene, x, y, dim)
		// Ephemeral boxed intermediates: nursery churn that dies at
		// the next minor collection.
		vp.AllocRawN(rtRayTempWords)
		vp.Compute(rtRayCostNs)
		buf[x] = px
	}
	row := vp.AllocRaw(buf)
	rs := vp.PushRoot(row)
	vp.StoreGlobalPtr(env.Get(vp, 0), y, rs)
	vp.PopRoots(1)
}

// RaytracerSeq is the sequential reference: it renders the same image
// host-side ("the sequential version differs ... in that it outputs each
// pixel as it is computed, instead of building an intermediate data
// structure").
func RaytracerSeq(scale float64) uint64 {
	dim := scaled(rtBaseDim, scale)
	scene := rtScene()
	var check uint64
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			check = fnv1a(check, shadePixel(scene, x, y, dim))
		}
	}
	return check
}
