package core

import (
	"bytes"
	"math/bits"
	"sync"

	"overd/internal/balance"
	"overd/internal/cases"
	"overd/internal/dcf"
	"overd/internal/flow"
	"overd/internal/grid"
	"overd/internal/par"
	"overd/internal/trace"
)

// Storage keeps, between the runs handed it through Config.Storage, what a
// run builds by first use and is done with when it returns — world slab, kit
// of per-rank buffers and arenas, tape, and the Encoder a caller that traces
// and encodes borrows — each cleared, emptied or length-reset when taken, so
// any Storage and nil (make and drop, same code) give identical results.
// Safe for concurrent runs; it holds at most their peak (DESIGN.md).
type Storage struct {
	mu    sync.Mutex
	free  [][]float64
	kits  []kit
	tapes []*par.Tape
	encs  []*Encoder
}

// Encoder is what a traced run and the encoding of its documents borrow
// from a Storage: a Recorder, whose per-rank event buffers keep their
// capacity across runs, and a scratch each document is appended into and
// copied out of (Keep) at its exact length.
type Encoder struct {
	Rec     *trace.Recorder
	Scratch []byte
}

// Keep returns a copy of doc, a document appended to e.Scratch[:0], at its
// exact length, and keeps doc's storage, grown as it may be, as the scratch.
func (e *Encoder) Keep(doc []byte) []byte {
	e.Scratch = doc[:0]
	return bytes.Clone(doc)
}

// Holdings is what a Storage keeps between runs.
type Holdings struct {
	SlabBytes    int64 // free world slabs
	Kits         int   // per-rank buffer kits
	Recorders    int   // encoders, each with one recorder
	ScratchBytes int64 // their scratches' capacity
}

// kit is the first-use buffers of one world's ranks, which flow.Arenas and
// dcf.Arenas lend to the rank's block and solver: attached to every one a run
// builds, so a repartition inherits them as the next run does.
type kit struct {
	flow *flow.Arenas
	dcf  *dcf.Arenas
}

// NewStorage returns an empty Storage.
func NewStorage() *Storage { return &Storage{} }

// Held reports what s holds between runs.
func (s *Storage) Held() Holdings {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Holdings{Kits: len(s.kits), Recorders: len(s.encs)}
	for _, b := range s.free {
		h.SlabBytes += 8 * int64(cap(b))
	}
	for _, e := range s.encs {
		h.ScratchBytes += int64(cap(e.Scratch))
	}
	return h
}

// get returns a slab of n values — the free slab of least sufficient
// capacity, its contents unspecified, or a new one — and whether it is new
// and so holds zeros. A miss means every free slab is too small for the
// sweep's current case, so they are let go.
func (s *Storage) get(n int) (slab []float64, zeroed bool) {
	if s == nil {
		return make([]float64, n), true
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
		return make([]float64, n, 1<<bits.Len(uint(n-1))), true
	}
	b := s.free[best]
	last := len(s.free) - 1
	s.free[best], s.free[last] = s.free[last], nil
	s.free = s.free[:last]
	return b[:n], false
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

// getKit returns a kit fitted to an n-rank world: the one given back last,
// or a new one.
func (s *Storage) getKit(n int) kit {
	var k kit
	if s != nil {
		s.mu.Lock()
		if last := len(s.kits) - 1; last >= 0 {
			k, s.kits = s.kits[last], s.kits[:last]
		}
		s.mu.Unlock()
	}
	if k.flow == nil {
		k = kit{new(flow.Arenas), new(dcf.Arenas)}
	}
	k.flow.Resize(n)
	k.dcf.Resize(n)
	return k
}

// putKit gives a kit from getKit back; its world's goroutines have joined.
func (s *Storage) putKit(k kit) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kits = append(s.kits, k)
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

// GetEncoder returns an encoder for a traced run: one PutEncoder gave back,
// or a new one. Its recorder is reset by the run that attaches it; its
// scratch holds bytes of no meaning.
func (s *Storage) GetEncoder() *Encoder {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if last := len(s.encs) - 1; last >= 0 {
			e := s.encs[last]
			s.encs = s.encs[:last]
			return e
		}
	}
	return &Encoder{Rec: trace.NewRecorder()}
}

// PutEncoder gives an encoder from GetEncoder back; the caller keeps no
// reference into its recorder or scratch.
func (s *Storage) PutEncoder(e *Encoder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.encs = append(s.encs, e)
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
	// parts is the plan as every rank's dcf.Solver reads it.
	parts []dcf.Part
}

func newBlockLayout(c *cases.Case, plan *balance.Plan) *blockLayout {
	l := &blockLayout{
		boxes: make([][]grid.IBox, len(c.Sys.Grids)),
		ranks: make([][]int, len(c.Sys.Grids)),
		self:  make([]int, plan.NP()),
		off:   make([]int, plan.NP()),
		parts: make([]dcf.Part, plan.NP()),
	}
	for rank, part := range plan.Parts {
		l.parts[rank] = dcf.Part{Grid: part.Grid, Rank: part.Rank, Box: part.Box}
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
	st.slab, st.slabZeroed = st.storage.get(st.layout.total)
}

// buildRank constructs rank's block and connectivity solver for the current
// plan, the block in its range of the world slab — cleared first, unless the
// slab came zeroed — and both on the world's kit. Every rank builds its own:
// construction reads the shared grid geometry and layout and writes only the
// rank's range, its buffers in the kit and its st.blocks and st.solvers
// entries.
func (st *runState) buildRank(rank int) {
	c := st.cfg.Case
	part := st.plan.Parts[rank]
	g := c.Sys.Grids[part.Grid]
	l := st.layout
	store := st.slab[l.off[rank] : l.off[rank]+flow.StoreLen(g, part.Box)]
	if !st.slabZeroed {
		clear(store)
	}
	b := flow.BuildBlock(g, l.boxes[part.Grid], l.ranks[part.Grid], l.self[rank], c.FS, store)
	if c.ViscousAll {
		b.SetViscousDirs([3]bool{true, true, true})
	}
	b.UseArenas(st.kit.flow)
	st.blocks[rank] = b
	st.solvers[rank] = dcf.NewSolver(c.Overset, l.parts, rank)
	st.solvers[rank].UseArenas(st.kit.dcf)
}
