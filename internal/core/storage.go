package core

import (
	"math/bits"
	"sync"

	"overd/internal/balance"
	"overd/internal/cases"
	"overd/internal/flow"
	"overd/internal/grid"
	"overd/internal/par"
)

// Storage is a free list of world slabs — the one piece of memory all of a
// run's blocks are built in — that a caller owns and hands to consecutive
// runs through Config.Storage, so the next row of a table rebuilds its
// blocks in the memory the last row is done with. A run takes a slab when it
// lays out its blocks (again when it repartitions or restarts after a
// crash) and gives every one back before Run returns. Slabs are made with
// their capacity rounded up to a power of two, so that the slightly larger
// slab the same case needs on more ranks still fits. Safe for concurrent
// runs; the nil Storage allocates every slab afresh and keeps none.
//
// Nothing bounds what a Storage holds beyond the slabs that were in use at
// once: drop it with the sweep it served. The rounding commits up to twice
// the bytes a run asked for (a slab just over a power of two), and a run
// that repartitions holds two slabs while it copies Q across. A get that no
// free slab satisfies lets all of them go, which suits a sweep that runs its
// rows one after another, small cases first; concurrent runs of different
// sizes may share a Storage safely but the larger one's misses throw away
// slabs the smaller one would have reused — results never depend on it.
//
// A Storage also keeps the tape a RunOn recorded its execution on (see
// par.Tape) for the next RunOn to record over: a tape is done with when RunOn
// returns, and a sweep's worth of them is otherwise a tenth of what the sweep
// allocates.
type Storage struct {
	mu    sync.Mutex
	free  [][]float64
	tapes []*par.Tape
}

// NewStorage returns an empty Storage.
func NewStorage() *Storage { return &Storage{} }

// get returns a slab of n values with unspecified contents: the free slab
// of least sufficient capacity, or a new one. A miss means every free slab
// is too small for the sweep's current case, so they are let go.
func (s *Storage) get(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	for i, b := range s.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		s.free = nil
		return make([]float64, n, 1<<bits.Len(uint(n-1)))
	}
	b := s.free[best]
	last := len(s.free) - 1
	s.free[best], s.free[last] = s.free[last], nil
	s.free = s.free[:last]
	return b[:n]
}

// put gives a slab from get back; the caller keeps no reference into it.
func (s *Storage) put(b []float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// getTape returns a tape to record a run on: one a finished RunOn gave back,
// or a new one.
func (s *Storage) getTape() *par.Tape {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if last := len(s.tapes) - 1; last >= 0 {
			t := s.tapes[last]
			s.tapes = s.tapes[:last]
			return t
		}
	}
	return par.NewTape()
}

// putTape gives a tape from getTape back; the caller is done replaying it.
func (s *Storage) putTape(t *par.Tape) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tapes = append(s.tapes, t)
	s.mu.Unlock()
}

// blockLayout places every rank's block of one plan in a world slab, and
// holds the per-grid box lists each block wires its neighbors from. It is
// computed by one goroutine and read by every rank.
type blockLayout struct {
	// boxes[gi] and ranks[gi] list grid gi's subdomains and their owners in
	// rank order; self[r] is rank r's index in its grid's lists.
	boxes [][]grid.IBox
	ranks [][]int
	self  []int
	// off[r] is where rank r's flow.StoreLen values start in the slab, a
	// multiple of 8 values (64 bytes) so no two blocks share a cache line;
	// total is the slab's length.
	off   []int
	total int
}

func newBlockLayout(c *cases.Case, plan *balance.Plan) *blockLayout {
	l := &blockLayout{
		boxes: make([][]grid.IBox, len(c.Sys.Grids)),
		ranks: make([][]int, len(c.Sys.Grids)),
		self:  make([]int, plan.NP()),
		off:   make([]int, plan.NP()),
	}
	for rank, part := range plan.Parts {
		l.self[rank] = len(l.boxes[part.Grid])
		l.boxes[part.Grid] = append(l.boxes[part.Grid], part.Box)
		l.ranks[part.Grid] = append(l.ranks[part.Grid], rank)
		l.off[rank] = l.total
		l.total += (flow.StoreLen(c.Sys.Grids[part.Grid], part.Box) + 7) &^ 7
	}
	return l
}

// layoutBlocks lays out the current plan's blocks and takes the slab they
// will be built in. Called where no rank is running or every other rank is
// parked on a barrier.
func (st *runState) layoutBlocks() {
	st.layout = newBlockLayout(st.cfg.Case, st.plan)
	st.slab = st.storage.get(st.layout.total)
}

// buildBlock constructs rank's block for the current plan in its range of
// the world slab. Every rank builds its own: construction reads the shared
// grid geometry and writes only the rank's range and its st.blocks entry.
func (st *runState) buildBlock(rank int) {
	c := st.cfg.Case
	part := st.plan.Parts[rank]
	g := c.Sys.Grids[part.Grid]
	l := st.layout
	lo := l.off[rank]
	b := flow.BuildBlock(g, l.boxes[part.Grid], l.ranks[part.Grid], l.self[rank], c.FS,
		st.slab[lo:lo+flow.StoreLen(g, part.Box)])
	if c.ViscousAll {
		b.SetViscousDirs([3]bool{true, true, true})
	}
	b.UseArenas(st.flowAr)
	st.blocks[rank] = b
}
