package flow

import (
	"fmt"

	"overd/internal/grid"
)

// BuildBlocks constructs the solver blocks for one component grid from its
// subdomain boxes and the world ranks that own them (boxes[i] is owned by
// ranks[i]), wiring face neighbors — including the periodic wrap in i for
// O-grids. The decomposition must be regular (a product of one-dimensional
// splits, as produced by balance.Subdivide) so that each face has at most
// one neighbor. Each block is built in a store of its own.
func BuildBlocks(g *grid.Grid, boxes []grid.IBox, ranks []int, fs Freestream) []*Block {
	blocks := make([]*Block, len(boxes))
	for i, box := range boxes {
		blocks[i] = BuildBlock(g, boxes, ranks, i, fs, make([]float64, StoreLen(g, box)))
	}
	return blocks
}

// BuildBlock constructs the one block BuildBlocks would return at index bi,
// wiring only that block's neighbors, inside store: StoreLen(g, boxes[bi])
// zeros — a fresh make, or a recycled range its owner has cleared — that the
// block keeps. It reads the grid and writes nothing shared, so every rank of
// a world may build its own block at once, each in its own range of one slab.
func BuildBlock(g *grid.Grid, boxes []grid.IBox, ranks []int, bi int, fs Freestream, store []float64) *Block {
	if len(boxes) != len(ranks) {
		panic("flow: boxes/ranks length mismatch")
	}
	box := boxes[bi]
	b := newBlock(g, box, fs, store)
	b.rank = ranks[bi]
	if g.Viscous {
		// Default viscous direction: wall-normal η. Cases may widen
		// this with SetViscousDirs.
		b.viscDirs = [3]bool{false, true, false}
	}

	find := func(i, j, k int) int {
		for ni, nb := range boxes {
			if nb.Contains(i, j, k) {
				return ni
			}
		}
		return -1
	}

	probes := [6]struct {
		dim, side int
		i, j, k   int
	}{
		{0, 0, box.ILo - 1, box.JLo, box.KLo},
		{0, 1, box.IHi + 1, box.JLo, box.KLo},
		{1, 0, box.ILo, box.JLo - 1, box.KLo},
		{1, 1, box.ILo, box.JHi + 1, box.KLo},
		{2, 0, box.ILo, box.JLo, box.KLo - 1},
		{2, 1, box.ILo, box.JLo, box.KHi + 1},
	}
	for _, p := range probes {
		i, j, k := p.i, p.j, p.k
		wrap := false
		if p.dim == 0 && g.PeriodicI() {
			if i < 0 {
				i, wrap = g.NI-1, true
			} else if i >= g.NI {
				i, wrap = 0, true
			}
		}
		if i < 0 || i >= g.NI || j < 0 || j >= g.NJ || k < 0 || k >= g.NK {
			continue
		}
		ni := find(i, j, k)
		if ni < 0 {
			panic(fmt.Sprintf("flow: no owner for probe (%d,%d,%d) of grid %q", i, j, k, g.Name))
		}
		b.Nbr[p.dim][p.side] = Neighbor{Rank: ranks[ni], Wrap: wrap}
	}
	return b
}
