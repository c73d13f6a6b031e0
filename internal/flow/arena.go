package flow

import "overd/internal/par"

// Arenas holds what one world's blocks make by first use and the next
// world's can use again: per-rank sharded envelope arenas (see par.Arena) for
// the flow solver's two message kinds — halo face planes and pipelined
// tridiagonal boundary state — and every rank's spare. Each rank's block Gets
// from and Puts to its own shard, so steady-state envelope reuse never
// contends across ranks. One Arenas is shared by all of a world's blocks and
// survives repartitions.
type Arenas struct {
	face  par.Arena[faceMsg]
	pipe  par.Arena[pipeMsg]
	spare []spare // indexed by rank
}

// spare is what a block sizes by first use outside its store: the point
// masks, the pipelined Thomas-solve state of lineSolves (5 values per
// transverse line, grown to the largest direction's line count) and the
// Baldwin-Lomax per-line scratch (wall-normal extent). A block has its own,
// or is lent its rank's by an Arenas, which lends it to the rank's next
// block — after a repartition, or in the next run. Every element read is
// written first, by classifyPoints or earlier in the same sweep or line, so
// nothing is cleared between uses or between blocks.
type spare struct {
	upd []bool // point is updated by the implicit scheme
	stv []bool // point is valid for difference stencils

	cIn, dIn, cOut, dOut, xIn []float64
	blOmega, blY, blRho       []float64
}

// sized gives *buf length n (see par.Resized) and returns it.
func sized[T any](buf *[]T, n int) []T {
	*buf = par.Resized(*buf, n)
	return *buf
}

// NewArenas sizes arenas for an n-rank world.
func NewArenas(n int) *Arenas {
	a := &Arenas{}
	a.Resize(n)
	return a
}

// Resize fits a to an n-rank world, while no world runs on it; what ranks
// beyond n left waits for a world that has such ranks.
func (a *Arenas) Resize(n int) {
	a.face.Init(n)
	a.pipe.Init(n)
	a.spare = par.Resized(a.spare, n)
}

// UseArenas attaches the world's arenas, before the block's first flow step;
// nil leaves the block to allocate an envelope per message and a spare of its
// own. Affects host allocation behavior only — wire sizes and virtual clocks
// never depend on where an envelope came from.
func (b *Block) UseArenas(a *Arenas) { b.ar = a }

// Envelope get/put helpers: the calling rank's arena shard when attached. A
// received envelope is Put into the RECEIVER's shard — cross-rank envelope
// migration is the arena's designed-for case.
func (b *Block) getFace(r *par.Rank) *faceMsg {
	if b.ar != nil {
		return b.ar.face.Get(r.ID)
	}
	return new(faceMsg)
}

func (b *Block) putFace(r *par.Rank, x *faceMsg) {
	if b.ar != nil {
		b.ar.face.Put(r.ID, x)
	}
}

func (b *Block) getPipe(r *par.Rank) *pipeMsg {
	if b.ar != nil {
		return b.ar.pipe.Get(r.ID)
	}
	return new(pipeMsg)
}

func (b *Block) putPipe(r *par.Rank, x *pipeMsg) {
	if b.ar != nil {
		b.ar.pipe.Put(r.ID, x)
	}
}
