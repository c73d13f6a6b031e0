package overset

import (
	"sync/atomic"

	"overd/internal/geom"
)

// HoleMap accelerates inside/outside queries for one cutter with a uniform
// Cartesian lattice over its bounding box, the technique DCF3D uses to make
// hole cutting cheap: cells fully inside or fully outside answer in O(1);
// only boundary ("mixed") cells fall back to the analytic test.
//
// Cells are classified on demand. A solve queries a small fraction of the
// lattice (the cells some foreign grid point falls in), so Rebuild only
// places the lattice and forgets the old classifications; the first query
// landing in a cell probes the cutter and memoises the answer.
type HoleMap struct {
	cutter     Cutter
	origin     geom.Vec3
	delta      geom.Vec3
	nx, ny, nz int
	// cell and corner memoise classifications, two bits per entry (zero is
	// "not classified yet"), sixteen entries to a word. A corner sample is
	// shared by the up-to-eight cells touching it. Entries only ever go from
	// zero to the value the cutter's placement determines, so concurrent
	// first touches of the same entry store equal values.
	cell   []atomic.Uint32
	corner []atomic.Uint32
	// Queries and fallbacks are counted for the ablation bench.
	Queries   int
	Fallbacks int
}

// Memoised classifications; corners use only the first two.
const (
	memoOutside = 1
	memoInside  = 2
	memoMixed   = 3
)

func memoGet(w []atomic.Uint32, n int) uint32 {
	return w[n>>4].Load() >> (uint(n&15) * 2) & 3
}

func memoSet(w []atomic.Uint32, n int, v uint32) {
	a, sh := &w[n>>4], uint(n&15)*2
	for {
		old := a.Load()
		if old>>sh&3 != 0 || a.CompareAndSwap(old, old|v<<sh) {
			return
		}
	}
}

// memoReset returns a zeroed memo of n entries, reusing w's storage.
func memoReset(w []atomic.Uint32, n int) []atomic.Uint32 {
	words := (n + 15) / 16
	if cap(w) < words {
		return make([]atomic.Uint32, words)
	}
	w = w[:words]
	for i := range w {
		w[i].Store(0)
	}
	return w
}

// NewHoleMap lays an n³-ish lattice (n per axis derived from res) over the
// cutter. Rebuild after the cutter's transform changes.
func NewHoleMap(c Cutter, res int) *HoleMap {
	if res < 2 {
		res = 2
	}
	hm := &HoleMap{cutter: c}
	hm.Rebuild(res)
	return hm
}

// Rebuild places the lattice over the cutter's current bounds and drops
// every memoised classification. It must not run concurrently with queries;
// buffers are reused across Rebuilds.
func (hm *HoleMap) Rebuild(res int) {
	raw := hm.cutter.Bounds()
	// Inflate proportionally so degenerate (flat) boxes keep positive cell
	// sizes in every axis.
	b := raw.Inflate(1e-9 + 1e-6*raw.Size().Norm())
	hm.origin = b.Min
	size := b.Size()
	hm.nx, hm.ny, hm.nz = res, res, res
	hm.delta = geom.Vec3{X: size.X / float64(res), Y: size.Y / float64(res), Z: size.Z / float64(res)}
	hm.cell = memoReset(hm.cell, res*res*res)
	hm.corner = memoReset(hm.corner, (res+1)*(res+1)*(res+1))
}

// classify computes cell (i,j,k)'s state from its eight corners plus its
// center: inside or outside when all nine samples agree, mixed otherwise.
// Corner (i+1) sits at float64(i+1)*delta, which equals the cell-relative
// (float64(i)+1)*delta exactly.
func (hm *HoleMap) classify(i, j, k int) uint32 {
	inside := 0
	for dk := 0; dk <= 1; dk++ {
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				if hm.cornerInside(i+di, j+dj, k+dk) {
					inside++
				}
			}
		}
	}
	if hm.cutter.Inside(geom.Vec3{
		X: hm.origin.X + (float64(i)+0.5)*hm.delta.X,
		Y: hm.origin.Y + (float64(j)+0.5)*hm.delta.Y,
		Z: hm.origin.Z + (float64(k)+0.5)*hm.delta.Z,
	}) {
		inside++
	}
	switch inside {
	case 9:
		return memoInside
	case 0:
		return memoOutside
	}
	return memoMixed
}

// cornerInside samples the cutter at lattice corner (i,j,k), once.
func (hm *HoleMap) cornerInside(i, j, k int) bool {
	n := i + (hm.nx+1)*(j+(hm.ny+1)*k)
	st := memoGet(hm.corner, n)
	if st == 0 {
		st = memoOutside
		if hm.cutter.Inside(geom.Vec3{
			X: hm.origin.X + float64(i)*hm.delta.X,
			Y: hm.origin.Y + float64(j)*hm.delta.Y,
			Z: hm.origin.Z + float64(k)*hm.delta.Z,
		}) {
			st = memoInside
		}
		memoSet(hm.corner, n, st)
	}
	return st == memoInside
}

// lookup answers the hole query through the map, falling back to the
// analytic cutter only in mixed cells (reported as fellBack).
func (hm *HoleMap) lookup(p geom.Vec3) (inside, fellBack bool) {
	i := int((p.X - hm.origin.X) / hm.delta.X)
	j := int((p.Y - hm.origin.Y) / hm.delta.Y)
	k := int((p.Z - hm.origin.Z) / hm.delta.Z)
	if i < 0 || i >= hm.nx || j < 0 || j >= hm.ny || k < 0 || k >= hm.nz {
		return false, false
	}
	n := i + hm.nx*(j+hm.ny*k)
	st := memoGet(hm.cell, n)
	if st == 0 {
		st = hm.classify(i, j, k)
		memoSet(hm.cell, n, st)
	}
	switch st {
	case memoOutside:
		return false, false
	case memoInside:
		return true, false
	}
	return hm.cutter.Inside(p), true
}

// Inside answers like InsideQuiet and counts the query; the counters make
// it single-goroutine only.
func (hm *HoleMap) Inside(p geom.Vec3) bool {
	hm.Queries++
	inside, fellBack := hm.lookup(p)
	if fellBack {
		hm.Fallbacks++
	}
	return inside
}

// InsideQuiet answers the hole query without touching the counters. Any
// number of ranks may call it concurrently between Rebuilds, including for
// cells no one has classified yet.
func (hm *HoleMap) InsideQuiet(p geom.Vec3) bool {
	inside, _ := hm.lookup(p)
	return inside
}

// Bounds returns the mapped region.
func (hm *HoleMap) Bounds() geom.Box {
	return geom.Box{Min: hm.origin, Max: geom.Vec3{
		X: hm.origin.X + float64(hm.nx)*hm.delta.X,
		Y: hm.origin.Y + float64(hm.ny)*hm.delta.Y,
		Z: hm.origin.Z + float64(hm.nz)*hm.delta.Z,
	}}
}
