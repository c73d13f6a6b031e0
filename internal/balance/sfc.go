package balance

import (
	"fmt"
	"sort"

	"overd/internal/grid"
)

// sfcBalancer distributes processors with the space-filling-curve plus
// greedy-knapsack strategy of block-structured AMR frameworks: component
// grids are ordered along a Morton (Z-order) curve through their
// world-space centers so that spatially adjacent grids get contiguous rank
// numbers, and processors are granted one at a time to whichever grid
// currently carries the heaviest per-processor load (greedy bin packing).
//
// For the paper's few-large-grids cases the resulting counts np(n) usually
// match Algorithm 1's — both chase g(n)/np(n) uniformity — but the rank
// numbering follows spatial locality instead of grid index order, and the
// count search is greedy rather than a tolerance-factor iteration. It has
// no step hook: like the static scheme it bets that the initial placement
// stays good.
type sfcBalancer struct{}

func (sfcBalancer) Name() string { return "sfc" }

func (sfcBalancer) Plan(in Input) (*Plan, error) {
	if err := checkProcs(in.Sizes, in.NP); err != nil {
		return nil, err
	}
	ng := len(in.Sizes)
	order := mortonOrder(in.Centers, ng)
	counts := knapsackCounts(in.Sizes, in.NP, order)

	// Tau keeps Algorithm 1's meaning so the sweep table compares like
	// with like.
	tau := loadTau(in.Sizes, counts, in.NP)

	plan := &Plan{Np: counts, Tau: tau}
	rank := 0
	for _, n := range order {
		full := grid.FullBox(in.Dims[n][0], in.Dims[n][1], in.Dims[n][2])
		var boxes []grid.IBox
		if in.Slabs {
			boxes = subdivideSlabs(full, counts[n])
		} else {
			boxes = Subdivide(full, counts[n])
		}
		for _, b := range boxes {
			plan.Parts = append(plan.Parts, Part{Grid: n, Rank: rank, Box: b})
			rank++
		}
	}
	return plan, nil
}

// mortonOrder returns grid indices sorted by the Morton key of their
// quantized centers (10 bits per axis against the global bounding box).
// Ties — including a nil Centers input — fall back to grid index order, so
// the ordering is always total and deterministic.
func mortonOrder(centers [][3]float64, ng int) []int {
	order := make([]int, ng)
	for i := range order {
		order[i] = i
	}
	if len(centers) != ng {
		return order
	}
	var lo, hi [3]float64
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = centers[0][a], centers[0][a]
	}
	for _, c := range centers {
		for a := 0; a < 3; a++ {
			if c[a] < lo[a] {
				lo[a] = c[a]
			}
			if c[a] > hi[a] {
				hi[a] = c[a]
			}
		}
	}
	keys := make([]uint64, ng)
	for i, c := range centers {
		var q [3]uint32
		for a := 0; a < 3; a++ {
			span := hi[a] - lo[a]
			if span > 0 {
				q[a] = uint32((c[a] - lo[a]) / span * 1023)
				if q[a] > 1023 {
					q[a] = 1023
				}
			}
		}
		keys[i] = mortonKey(q[0], q[1], q[2])
	}
	sort.SliceStable(order, func(a, b int) bool {
		return keys[order[a]] < keys[order[b]]
	})
	return order
}

// mortonKey interleaves the low 10 bits of x, y and z into a 30-bit Z-order
// key (x in the lowest lane).
func mortonKey(x, y, z uint32) uint64 {
	return spreadBits(x) | spreadBits(y)<<1 | spreadBits(z)<<2
}

// spreadBits spaces the low 10 bits of v two apart (b -> b*8 weight gaps),
// the classic magic-number dilation.
func spreadBits(v uint32) uint64 {
	x := uint64(v) & 0x3ff
	x = (x | x<<16) & 0x030000ff
	x = (x | x<<8) & 0x0300f00f
	x = (x | x<<4) & 0x030c30c3
	x = (x | x<<2) & 0x09249249
	return x
}

// knapsackCounts gives every grid one processor, then grants the rest by
// grantGreedy in Morton order.
func knapsackCounts(sizes []int, np int, order []int) []int {
	counts := make([]int, len(sizes))
	for i := range counts {
		counts[i] = 1
	}
	return grantGreedy(sizes, counts, np, order)
}

// grantGreedy grants processors to counts one at a time, until they sum to
// np, each to the grid with the heaviest current per-processor load
// g(n)/np(n) — which minimizes the largest load. Ties break toward the
// earlier grid in order; the comparison cross-multiplies in integers so the
// greedy choice is exact.
func grantGreedy(sizes, counts []int, np int, order []int) []int {
	for _, c := range counts {
		np -= c
	}
	for ; np > 0; np-- {
		best := -1
		for _, n := range order {
			if best < 0 ||
				int64(sizes[n])*int64(counts[best]) > int64(sizes[best])*int64(counts[n]) {
				best = n
			}
		}
		counts[best]++
	}
	return counts
}

// loadTau is a plan's static imbalance, Algorithm 1's τ read off the counts:
// the largest per-processor load over the ideal mean, minus one.
func loadTau(sizes, counts []int, np int) float64 {
	var total float64
	maxLoad := 0.0
	for n, s := range sizes {
		total += float64(s)
		if l := float64(s) / float64(counts[n]); l > maxLoad {
			maxLoad = l
		}
	}
	if tau := maxLoad/(total/float64(np)) - 1; tau > 0 {
		return tau
	}
	return 0
}

// checkProcs refuses a processor count no plan can use: fewer than one per
// grid, or more than there are gridpoints (a subdomain holds at least one).
func checkProcs(sizes []int, np int) error {
	if len(sizes) == 0 {
		return fmt.Errorf("balance: no grids")
	}
	if np < len(sizes) {
		return fmt.Errorf("balance: %d processors cannot cover %d grids (np(n) >= 1)", np, len(sizes))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if np > total {
		return fmt.Errorf("balance: %d processors exceed the %d gridpoints", np, total)
	}
	return nil
}

func init() {
	Register("sfc", func(Params) Balancer { return sfcBalancer{} })
}
