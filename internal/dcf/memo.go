package dcf

import (
	"math"
	"math/bits"

	"overd/internal/grid"
	"overd/internal/overset"
)

// walkSlot is one remembered overset.LimitedWalk under its key: the
// request's position bits, start hint, consumed restarts and scratch flag.
// Indices are 16-bit as in packRestartKey (Solve builds no table for a
// larger grid); cell is the containing cell or the exit cell. 64 bytes.
type walkSlot struct {
	pos         [3]uint64
	abc         [3]float64
	start, cell [3]uint16
	steps       uint16
	req         uint8 // 1 | scratch<<1 | request restarts<<2; 0 marks an empty slot
	out         uint8 // walkFailed, walkContained or walkExited | walk restarts<<2
}

const (
	walkFailed = iota
	walkContained
	walkExited
)

// walk is the coordinate part of one donor search in my subdomain, taken
// from the memo when it has it. The table is direct-mapped and a colliding
// entry is overwritten: a miss costs the walk, never its result.
func (s *Solver) walk(g *grid.Grid, box grid.IBox, pt *ptReq) overset.LimitedWalk {
	s.memoReqs++
	if len(s.memo) == 0 {
		return walkFresh(g, box, pt)
	}
	pos := [3]uint64{math.Float64bits(pt.Pos.X), math.Float64bits(pt.Pos.Y), math.Float64bits(pt.Pos.Z)}
	start := [3]uint16{uint16(pt.Start[0]), uint16(pt.Start[1]), uint16(pt.Start[2])}
	req := uint8(1 | pt.Restarts<<2)
	if pt.Scratch {
		req |= 2
	}
	const mix = 0x9e3779b97f4a7c15
	h := (pos[0]*mix ^ pos[1]) * mix
	h = (h ^ pos[2]) * mix
	h = (h ^ uint64(start[0])<<40 ^ uint64(start[1])<<24 ^ uint64(start[2])<<8 ^ uint64(req)) * mix
	sl := &s.memo[h>>(64-bits.TrailingZeros(uint(len(s.memo))))] // len is a power of two
	if sl.req == req && sl.pos == pos && sl.start == start {
		w := overset.LimitedWalk{Steps: int(sl.steps), Restarts: int(sl.out >> 2)}
		cell := [3]int{int(sl.cell[0]), int(sl.cell[1]), int(sl.cell[2])}
		switch sl.out & 3 {
		case walkContained:
			w.Contained = true
			w.Donor = overset.Donor{Grid: pt.Grid, I: cell[0], J: cell[1], K: cell[2],
				A: sl.abc[0], B: sl.abc[1], C: sl.abc[2]}
		case walkExited:
			w.Exited, w.ExitCell = true, cell
		}
		return w
	}
	w := walkFresh(g, box, pt)
	cell, out := w.ExitCell, uint8(walkFailed)
	if w.Contained {
		cell, out = [3]int{w.Donor.I, w.Donor.J, w.Donor.K}, walkContained
	} else if w.Exited {
		out = walkExited
	}
	*sl = walkSlot{
		pos: pos, abc: [3]float64{w.Donor.A, w.Donor.B, w.Donor.C}, start: start,
		cell:  [3]uint16{uint16(cell[0]), uint16(cell[1]), uint16(cell[2])},
		steps: uint16(w.Steps), req: req, out: out | uint8(w.Restarts)<<2,
	}
	return w
}

// walkFresh runs the walk a request asks for.
func walkFresh(g *grid.Grid, box grid.IBox, pt *ptReq) overset.LimitedWalk {
	start := pt.Start
	if pt.Scratch {
		// From-scratch request: sample this subdomain for the nearest
		// starting cell ("nothing is known about the possible donor
		// location and the solution must be performed from scratch").
		start = nearestStartInBox(g, box, pt.Pos)
	}
	return overset.WalkLimited(g, pt.Grid, pt.Pos, start, box, chainRestartBudget-pt.Restarts)
}
