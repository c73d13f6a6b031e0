package flow

import (
	"overd/internal/par"
)

// faceMsg is the envelope of one halo plane. The receiver copies vals into
// its ghost layer and puts the envelope into its arena shard, so steady-state
// exchanges allocate nothing per face.
type faceMsg struct {
	vals []float64
}

// ExchangeHalo swaps the Halo-deep boundary planes of Q with the face
// neighbors of this block (including periodic wrap neighbors). All sends
// are posted first (asynchronous, as in the MPI original), then receives
// are matched by face. It charges no flops: pure communication.
func (b *Block) ExchangeHalo(r *par.Rank) {
	type post struct {
		dim, side int
		nbr       Neighbor
	}
	// At most 6 faces; a fixed array keeps the post list off the heap.
	var posts [6]post
	nposts, haloBytes := 0, 0
	for dim := 0; dim < 3; dim++ {
		if b.TwoD && dim == 2 {
			continue
		}
		for side := 0; side < 2; side++ {
			nbr := b.Nbr[dim][side]
			if nbr.Rank < 0 {
				continue
			}
			posts[nposts] = post{dim, side, nbr}
			nposts++
			fm := b.getFace(r)
			fm.vals = b.packFace(fm.vals[:0], dim, side)
			// Tag encodes the receiving face so a 2-rank periodic ring
			// can distinguish its two connections to the same peer.
			// Reliable send: halo planes are required for correctness, so
			// under fault injection a dropped plane is retransmitted (with
			// backed-off ack timeouts) rather than lost.
			tag := par.TagHalo + par.Tag(10*dim+(1-side))
			haloBytes += 8 * len(fm.vals)
			r.SendReliable(nbr.Rank, tag, fm, 8*len(fm.vals))
		}
	}
	publishHaloMetrics(r, nposts, haloBytes)
	faulty := r.Faulty()
	for _, p := range posts[:nposts] {
		tag := par.TagHalo + par.Tag(10*p.dim+p.side)
		if faulty {
			// A plane lost beyond the retry budget degrades to reusing the
			// previous ghost values (first-order in time) instead of
			// deadlocking or killing the run.
			if m, ok := r.RecvTimeout(p.nbr.Rank, tag, 2*r.Model().LatencySec); ok {
				fm := m.Data.(*faceMsg)
				b.unpackFace(p.dim, p.side, fm.vals)
				b.putFace(r, fm)
			}
			continue
		}
		m := r.Recv(p.nbr.Rank, tag)
		fm := m.Data.(*faceMsg)
		b.unpackFace(p.dim, p.side, fm.vals)
		b.putFace(r, fm)
	}
}

// faceSlabBounds returns the local index bounds of a Halo-deep slab on the
// given face: owned boundary planes when owned=true, ghost planes otherwise.
func (b *Block) faceSlabBounds(dim, side int, owned bool) (ilo, ihi, jlo, jhi, klo, khi int) {
	ilo, ihi = Halo, b.MI-Halo-1
	jlo, jhi = Halo, b.MJ-Halo-1
	if b.TwoD {
		klo, khi = 0, 0
	} else {
		klo, khi = Halo, b.MK-Halo-1
	}
	set := func(lo, hi int) (int, int) {
		if owned {
			if side == 0 {
				return lo, lo + Halo - 1
			}
			return hi - Halo + 1, hi
		}
		if side == 0 {
			return lo - Halo, lo - 1
		}
		return hi + 1, hi + Halo
	}
	switch dim {
	case 0:
		ilo, ihi = set(ilo, ihi)
	case 1:
		jlo, jhi = set(jlo, jhi)
	default:
		klo, khi = set(klo, khi)
	}
	return
}

// packFace appends the owned boundary slab of face (dim, side) of Q to out
// (normally a recycled envelope buffer) and returns it. The innermost (li)
// direction is contiguous in both Q and the wire layout, so each (lj,lk)
// row is one bulk append instead of a per-point copy.
func (b *Block) packFace(out []float64, dim, side int) []float64 {
	ilo, ihi, jlo, jhi, klo, khi := b.faceSlabBounds(dim, side, true)
	run := 5 * (ihi - ilo + 1)
	if n := (ihi - ilo + 1) * (jhi - jlo + 1) * (khi - klo + 1); cap(out) < 5*n {
		out = make([]float64, 0, 5*n)
	}
	for lk := klo; lk <= khi; lk++ {
		for lj := jlo; lj <= jhi; lj++ {
			p0 := 5 * b.LIdx(ilo, lj, lk)
			out = append(out, b.Q[p0:p0+run]...)
		}
	}
	return out
}

// unpackFace writes a received slab into the ghost layers of face
// (dim, side), one contiguous row per copy.
func (b *Block) unpackFace(dim, side int, data []float64) {
	ilo, ihi, jlo, jhi, klo, khi := b.faceSlabBounds(dim, side, false)
	run := 5 * (ihi - ilo + 1)
	pos := 0
	for lk := klo; lk <= khi; lk++ {
		for lj := jlo; lj <= jhi; lj++ {
			p0 := 5 * b.LIdx(ilo, lj, lk)
			copy(b.Q[p0:p0+run], data[pos:pos+run])
			pos += run
		}
	}
}
