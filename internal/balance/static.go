// Package balance implements the paper's load-balancing schemes: the static
// gridpoint-volume balancer (Algorithm 1) with its prime-factor
// minimal-surface subdivision, the dynamic connectivity re-balancer
// (Algorithm 2), and the grouping strategy for large numbers of small
// Cartesian grids (Algorithm 3, §5).
package balance

import (
	"fmt"
	"sort"

	"overd/internal/grid"
)

// Part assigns one rank a subdomain of one component grid.
type Part struct {
	// Grid is the component grid index.
	Grid int
	// Rank is the processor owning this part.
	Rank int
	// Box is the owned point range in the grid's index space.
	Box grid.IBox
}

// Plan is a complete partition of an overset grid system across NP ranks.
// Ranks are numbered contiguously grid by grid, so the parts of one
// component form one "processor group" as in the paper's Fig. 2.
type Plan struct {
	// Parts is indexed by rank.
	Parts []Part
	// Np is the number of processors applied to each component grid.
	Np []int
	// Tau is the converged tolerance factor of Algorithm 1 — the paper's
	// measure of the degree of static load imbalance (0 = perfect).
	Tau float64
}

// NP returns the total number of ranks in the plan.
func (p *Plan) NP() int { return len(p.Parts) }

// RanksOfGrid returns the ranks owning parts of component grid n.
func (p *Plan) RanksOfGrid(n int) []int {
	var out []int
	for r, part := range p.Parts {
		if part.Grid == n {
			out = append(out, r)
		}
	}
	return out
}

// MaxPoints returns the largest per-rank gridpoint count, whose ratio to the
// mean measures the achieved flow-solution balance.
func (p *Plan) MaxPoints() int {
	m := 0
	for _, part := range p.Parts {
		if c := part.Box.Count(); c > m {
			m = c
		}
	}
	return m
}

// Static computes Algorithm 1: distribute NP processors over the component
// grids proportionally to their gridpoint counts g(n) (each grid gets at
// least one), then subdivide each grid into np(n) subdomains of minimal
// surface area using the prime factors of np(n).
//
// The published recurrence initializes ε = G/NP and, while Σnp < NP, sets
// τ += Δτ and ε = ε·(1+τ). Growing ε can only shrink np(n) = int(g(n)/ε), so
// taken literally the loop cannot reach Σnp = NP; the clearly intended
// update, used here, shrinks the target subdomain size, ε = ε₀/(1+τ), until
// enough subdomains exist. The paper's special condition for the
// integer-arithmetic tie (equal grids competing for an odd processor) is
// kept verbatim: add the grid index n to g(n) and retry.
func Static(sizes []int, np int) (*Plan, error) {
	if err := checkProcs(sizes, np); err != nil {
		return nil, err
	}
	counts, tau, err := solveCounts(sizes, np, nil)
	if err != nil {
		return nil, err
	}
	return buildPlan(sizes, counts, tau), nil
}

// StaticWithMinimums is Algorithm 1 with per-grid lower bounds on np(n),
// used by the dynamic scheme's re-run ("with above np(n) condition enforced
// for grid n").
func StaticWithMinimums(sizes []int, np int, minNp []int) (*Plan, error) {
	if err := checkProcs(sizes, np); err != nil {
		return nil, err
	}
	total := 0
	for _, m := range minNp {
		if m < 1 {
			m = 1
		}
		total += m
	}
	if total > np {
		return nil, fmt.Errorf("balance: minimum processor counts (%d) exceed NP=%d", total, np)
	}
	counts, tau, err := solveCounts(sizes, np, minNp)
	if err != nil {
		return nil, err
	}
	return buildPlan(sizes, counts, tau), nil
}

// solveCounts finds np(n) >= max(1, minNp(n)) with Σnp = NP, keeping np(n)
// proportional to g(n)/ε for a subdomain size ε as close as possible to the
// ideal ε₀ = G/NP. The paper iterates a tolerance factor τ in fixed steps of
// ~0.1 to adjust ε; because Σnp(ε) is monotone in ε, the equivalent and more
// robust search used here bisects on ε directly (the fixed step can jump
// past the solution at large processor counts, and the per-grid minimums of
// the dynamic scheme can put the initial Σnp on either side of NP). The
// returned τ = |ε₀/ε − 1| preserves the paper's meaning: the degree of
// static load imbalance, 0 when the problem divides perfectly. The paper's
// special condition for the integer-arithmetic tie — equal grids flipping
// together so no ε yields Σnp = NP exactly — is kept verbatim: add the grid
// index n to g(n) and repeat.
func solveCounts(sizes []int, np int, minNp []int) ([]int, float64, error) {
	ng := len(sizes)
	g := make([]float64, ng)
	for i, s := range sizes {
		if s <= 0 {
			return nil, 0, fmt.Errorf("balance: grid %d has %d points", i, s)
		}
		g[i] = float64(s)
	}
	mins := make([]int, ng)
	for i := range mins {
		mins[i] = 1
		if minNp != nil && minNp[i] > 1 {
			mins[i] = minNp[i]
		}
	}

	countsAt := func(eps float64) []int {
		c := make([]int, ng)
		for i := range c {
			c[i] = int(g[i] / eps)
			if c[i] < mins[i] {
				c[i] = mins[i]
			}
		}
		return c
	}
	sum := func(c []int) int {
		s := 0
		for _, v := range c {
			s += v
		}
		return s
	}

	for attempt := 0; attempt < ng+4; attempt++ {
		var G float64
		for _, v := range g {
			G += v
		}
		eps0 := G / float64(np)
		// Bracket: lo gives many subdomains (Σnp >= NP), hi gives few.
		lo, hi := eps0/float64(np+1), G+1
		if s := sum(countsAt(lo)); s < np {
			lo = 1e-9 // extremely skewed sizes; widen
		}
		if sum(countsAt(eps0)) == np {
			return countsAt(eps0), 0, nil // perfectly balanced, τ = 0
		}
		for iter := 0; iter < 200; iter++ {
			eps := (lo + hi) / 2
			s := sum(countsAt(eps))
			if s == np {
				// Valid ε found; walk it toward the ideal ε₀ so the
				// reported τ measures the minimum necessary deviation.
				good, bad := eps, eps0
				for i := 0; i < 100; i++ {
					mid := (good + bad) / 2
					if sum(countsAt(mid)) == np {
						good = mid
					} else {
						bad = mid
					}
				}
				tau := eps0/good - 1
				if tau < 0 {
					tau = -tau
				}
				return countsAt(good), tau, nil
			}
			if s > np {
				lo = eps
			} else {
				hi = eps
			}
		}
		// Paper's special condition: perturb g(n) by the grid index so
		// symmetric grids stop flipping together, then repeat.
		for i := range g {
			g[i] += float64(i + 1)
		}
	}
	// No ε gives Σnp = NP even perturbed (several grids' counts step
	// together at every ε): grant from the minimums greedily instead.
	order := make([]int, ng)
	for i := range order {
		order[i] = i
	}
	counts := grantGreedy(sizes, mins, np, order)
	return counts, loadTau(sizes, counts, np), nil
}

func buildPlan(sizes []int, counts []int, tau float64) *Plan {
	plan := &Plan{Np: counts, Tau: tau}
	rank := 0
	for n := range sizes {
		// The caller provides index dims through SubdividePlan; here we
		// only reserve rank numbering. Boxes are filled by SubdividePlan.
		for s := 0; s < counts[n]; s++ {
			plan.Parts = append(plan.Parts, Part{Grid: n, Rank: rank})
			rank++
		}
	}
	return plan
}

// SubdividePlan fills the index boxes of a plan for the given grid
// dimensions using the prime-factor minimal-surface rule: for each grid the
// prime factors of np(n) are applied largest first, each cutting the
// largest remaining dimension of every current subdomain, yielding index
// spaces "as close to cubic as possible" (paper Fig. 4).
func SubdividePlan(plan *Plan, dims [][3]int) {
	idx := 0
	for n, count := range plan.Np {
		boxes := Subdivide(grid.FullBox(dims[n][0], dims[n][1], dims[n][2]), count)
		for _, b := range boxes {
			plan.Parts[idx].Box = b
			idx++
		}
	}
}

// SubdividePlanSlabs fills the plan with one-dimensional slab subdomains
// (each grid cut only along its largest dimension) — the naive baseline the
// minimal-surface ablation compares against.
func SubdividePlanSlabs(plan *Plan, dims [][3]int) {
	idx := 0
	for n, count := range plan.Np {
		full := grid.FullBox(dims[n][0], dims[n][1], dims[n][2])
		// Degenerate grids may not honor count slabs; subdivideSlabs
		// bisects the largest piece until the count is met.
		boxes := subdivideSlabs(full, count)
		for _, b := range boxes {
			plan.Parts[idx].Box = b
			idx++
		}
	}
}

// ProcGrid returns the processor-grid shape (pi, pj, pk) for splitting a box
// into np subdomains: the prime factors of np, largest first, are each
// assigned to the largest remaining dimension, shrinking that dimension's
// bookkeeping size. This yields index spaces "as close to cubic as possible"
// (paper Fig. 4) and a regular arrangement with exactly one neighbor per
// subdomain face, which the halo exchange and pipelined implicit solves of
// the flow solver rely on. Factors that fit no dimension (degenerate boxes)
// are dropped, so pi*pj*pk may be less than np in pathological cases.
func ProcGrid(box grid.IBox, np int) (pi, pj, pk int) {
	pi, pj, pk = 1, 1, 1
	di, dj, dk := box.NI(), box.NJ(), box.NK()
	for _, f := range PrimeFactors(np) {
		switch {
		case di >= dj && di >= dk && di >= f:
			pi *= f
			di /= f
		case dj >= dk && dj >= f:
			pj *= f
			dj /= f
		case dk >= f:
			pk *= f
			dk /= f
		case di >= f:
			pi *= f
			di /= f
		case dj >= f:
			pj *= f
			dj /= f
		}
	}
	return pi, pj, pk
}

// Subdivide splits an index box into np subdomains using the prime factors
// of np, largest factor first, each assigned to the largest remaining
// dimension (see ProcGrid). Pieces come back in k-major, then j, then i
// order. If the regular processor grid cannot realize np pieces (np has a
// prime factor larger than every dimension), the largest pieces are
// bisected greedily until the count is met; this cannot trigger for the
// paper's configurations but keeps the dynamic scheme safe when it piles
// processors onto small grids.
func Subdivide(box grid.IBox, np int) []grid.IBox {
	if np < 1 {
		np = 1
	}
	pi, pj, pk := ProcGrid(box, np)
	isplits := box.SplitDim(0, pi)
	var pieces []grid.IBox
	for _, kp := range box.SplitDim(2, pk) {
		for _, jp := range box.SplitDim(1, pj) {
			for _, ip := range isplits {
				pieces = append(pieces, grid.IBox{
					ILo: ip.ILo, IHi: ip.IHi,
					JLo: jp.JLo, JHi: jp.JHi,
					KLo: kp.KLo, KHi: kp.KHi,
				})
			}
		}
	}
	for len(pieces) < np && len(pieces) < box.Count() {
		bi, bc := 0, 0
		for i, p := range pieces {
			if c := p.Count(); c > bc {
				bi, bc = i, c
			}
		}
		p := pieces[bi]
		halves := p.SplitDim(p.LargestDim(), 2)
		if len(halves) < 2 {
			break
		}
		pieces = append(pieces[:bi], append(halves, pieces[bi+1:]...)...)
	}
	sort.Slice(pieces, func(a, b int) bool {
		pa, pb := pieces[a], pieces[b]
		if pa.KLo != pb.KLo {
			return pa.KLo < pb.KLo
		}
		if pa.JLo != pb.JLo {
			return pa.JLo < pb.JLo
		}
		return pa.ILo < pb.ILo
	})
	return pieces
}

// PrimeFactors returns the prime factorization of n in descending order
// (e.g. 12 -> [3 2 2]), matching the paper's example.
func PrimeFactors(n int) []int {
	var f []int
	for d := 2; d*d <= n; d++ {
		for n%d == 0 {
			f = append(f, d)
			n /= d
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(f)))
	return f
}
