package balance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"overd/internal/grid"
)

// Static always assigns every processor, gives every grid at least one,
// and keeps counts weakly ordered with grid sizes.
func TestStaticInvariants_Property(t *testing.T) {
	f := func(seed int64, ngRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ng := int(ngRaw%8) + 1
		sizes := make([]int, ng)
		for i := range sizes {
			sizes[i] = 1000 + rng.Intn(500000)
		}
		np := ng + int(extraRaw%60)
		plan, err := Static(sizes, np)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range plan.Np {
			if c < 1 {
				return false
			}
			sum += c
		}
		if sum != np {
			return false
		}
		// Monotonicity within a tolerance of one processor: a grid twice
		// as large never gets fewer than half the processors minus one.
		for a := 0; a < ng; a++ {
			for b := 0; b < ng; b++ {
				if sizes[a] >= 2*sizes[b] && plan.Np[a] < plan.Np[b]/2-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Subdivide covers the box exactly with disjoint pieces for any count.
func TestSubdivideCoverage_Property(t *testing.T) {
	f := func(niRaw, njRaw, nkRaw, npRaw uint8) bool {
		ni := int(niRaw%50) + 8
		nj := int(njRaw%50) + 8
		nk := int(nkRaw%20) + 1
		np := int(npRaw%16) + 1
		box := grid.FullBox(ni, nj, nk)
		pieces := Subdivide(box, np)
		if len(pieces) != np {
			return false
		}
		total := 0
		for _, p := range pieces {
			if !p.Valid() {
				return false
			}
			total += p.Count()
		}
		return total == box.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Group assigns every grid exactly once for any sizes/topology.
func TestGroupTotalAssignment_Property(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		m := int(mRaw%8) + 1
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(1000)
		}
		adj := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					adj[[2]int{i, j}] = true
				}
			}
		}
		conn := func(a, b int) bool {
			if a > b {
				a, b = b, a
			}
			return adj[[2]int{a, b}]
		}
		groups := Group(sizes, conn, m)
		seen := make([]bool, n)
		for _, g := range groups {
			for _, gi := range g {
				if seen[gi] {
					return false
				}
				seen[gi] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Every registered balancer, fed the same random grid system, must produce
// a structurally sound Plan: every rank 0..NP-1 assigned exactly one part,
// every grid owning at least one part, per-grid box counts covering the
// grid exactly, and Np consistent with the parts. These are the invariants
// the runtime's block builder assumes regardless of which balancer ran. A
// system with fewer gridpoints than ranks has no such plan: every balancer
// must refuse it.
func TestBalancerPlanInvariants_Property(t *testing.T) {
	f := func(seed int64, ngRaw, extraRaw uint8) bool {
		return planInvariants(t, seed, ngRaw, extraRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBalancerPlanInvariantsPinned replays generator inputs that once broke
// the property: a 4×6×1 grid (24 points) on 32 ranks, which the static,
// dynamic and diffusive plans covered with 32 "points", and four grids on
// 14 ranks for which no subdomain size ε gives exactly 14 subdomains.
func TestBalancerPlanInvariantsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		ngRaw, extraRaw uint8
	}{
		{-1909685486341610259, 0, 31},
		{-1909685486341610259, 0, 19}, // same grid, 20 ranks: a valid plan
		{6961550505307684846, 0xe7, 0x5a},
	} {
		if !planInvariants(t, tc.seed, tc.ngRaw, tc.extraRaw) {
			t.Errorf("seed %d ng %d extra %d: invariants broken", tc.seed, tc.ngRaw, tc.extraRaw)
		}
	}
}

func planInvariants(t *testing.T, seed int64, ngRaw, extraRaw uint8) bool {
	rng := rand.New(rand.NewSource(seed))
	ng := int(ngRaw%6) + 1
	sizes := make([]int, ng)
	dims := make([][3]int, ng)
	centers := make([][3]float64, ng)
	points := 0
	for i := range sizes {
		d := [3]int{4 + rng.Intn(30), 4 + rng.Intn(30), 1 + rng.Intn(10)}
		dims[i] = d
		sizes[i] = d[0] * d[1] * d[2]
		points += sizes[i]
		centers[i] = [3]float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 10}
	}
	np := ng + int(extraRaw%40)
	in := Input{Sizes: sizes, Dims: dims, Centers: centers, NP: np}
	for _, name := range Names() {
		b, err := New(name, Params{Fo: 5, CheckInterval: 2})
		if err != nil {
			t.Logf("%s: construct: %v", name, err)
			return false
		}
		plan, err := b.Plan(in)
		if np > points {
			if err == nil {
				t.Logf("%s: planned %d ranks on %d points", name, np, points)
				return false
			}
			continue
		}
		if err != nil {
			t.Logf("%s: plan: %v", name, err)
			return false
		}
		if len(plan.Parts) != np {
			t.Logf("%s: %d parts for %d ranks", name, len(plan.Parts), np)
			return false
		}
		rankSeen := make([]bool, np)
		gridCover := make([]int, ng)
		gridParts := make([]int, ng)
		for _, p := range plan.Parts {
			if p.Rank < 0 || p.Rank >= np || rankSeen[p.Rank] {
				t.Logf("%s: bad or duplicate rank %d", name, p.Rank)
				return false
			}
			rankSeen[p.Rank] = true
			if p.Grid < 0 || p.Grid >= ng {
				t.Logf("%s: part with grid %d out of range", name, p.Grid)
				return false
			}
			if !p.Box.Valid() {
				t.Logf("%s: rank %d has an invalid box", name, p.Rank)
				return false
			}
			gridCover[p.Grid] += p.Box.Count()
			gridParts[p.Grid]++
		}
		total := 0
		for n := range sizes {
			if gridParts[n] == 0 {
				t.Logf("%s: grid %d owns no part", name, n)
				return false
			}
			if gridParts[n] != plan.Np[n] {
				t.Logf("%s: grid %d has %d parts but Np %d", name, n, gridParts[n], plan.Np[n])
				return false
			}
			if gridCover[n] != sizes[n] {
				t.Logf("%s: grid %d boxes cover %d of %d points", name, n, gridCover[n], sizes[n])
				return false
			}
			total += gridCover[n]
		}
		if total != points {
			t.Logf("%s: loads sum to %d, want %d", name, total, points)
			return false
		}
	}
	return true
}

// SubdividePlanSlabs also covers each grid exactly.
func TestSlabCoverage_Property(t *testing.T) {
	f := func(niRaw, npRaw uint8) bool {
		ni := int(niRaw%80) + 10
		np := int(npRaw%12) + 1
		sizes := []int{ni * 20 * 10}
		plan, err := Static(sizes, np)
		if err != nil {
			return false
		}
		SubdividePlanSlabs(plan, [][3]int{{ni, 20, 10}})
		total := 0
		for _, p := range plan.Parts {
			total += p.Box.Count()
		}
		return total == ni*20*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
