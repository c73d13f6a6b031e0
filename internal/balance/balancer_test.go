package balance

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"overd/internal/grid"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"diffusive", "dynamic", "sfc", "static"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if _, err := New("nope", Params{}); err == nil || !strings.Contains(err.Error(), `unknown balancer "nope"`) {
		t.Errorf("New(nope) error = %v, want unknown-balancer", err)
	}
	for _, name := range names {
		b, err := New(name, Params{Fo: 5, CheckInterval: 2})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("New(%s).Name() = %q", name, b.Name())
		}
	}
}

func TestValidateSelection(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		fo      float64
		wantErr string // substring, "" = valid
	}{
		{"", inf, ""},
		{"", 5, ""}, // empty resolves from fo, never contradictory
		{"static", inf, ""},
		{"static", 0, ""},
		{"static", 5, "no effect"},
		{"sfc", inf, ""},
		{"sfc", 2, "no effect"},
		{"dynamic", 5, ""},
		{"dynamic", inf, "finite load factor"},
		{"dynamic", 0, "finite load factor"},
		{"diffusive", inf, ""},
		{"diffusive", 1.5, ""},
		{"diffusive", 1, "must exceed 1"},
		{"diffusive", 0.5, "must exceed 1"},
		{"bogus", inf, `unknown balancer "bogus"`},
	}
	for _, c := range cases {
		err := ValidateSelection(c.name, c.fo)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateSelection(%q, %g) = %v, want nil", c.name, c.fo, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateSelection(%q, %g) = %v, want error containing %q", c.name, c.fo, err, c.wantErr)
		}
	}
}

func TestDynamicBalancerActive(t *testing.T) {
	mk := func(fo float64) StepBalancer {
		b, err := New("dynamic", Params{Fo: fo, CheckInterval: 5})
		if err != nil {
			t.Fatal(err)
		}
		return b.(StepBalancer)
	}
	if mk(math.Inf(1)).Active() {
		t.Error("dynamic with fo=+Inf should be inactive")
	}
	if mk(0).Active() {
		t.Error("dynamic with fo=0 should be inactive")
	}
	if !mk(5).Active() {
		t.Error("dynamic with fo=5 should be active")
	}
	if !mk(5).Needs().IGBPs {
		t.Error("dynamic should request IGBPs")
	}
}

// The old ad-hoc isInf helper treated any factor above 1e300 as infinite,
// silently disabling an absurd-but-finite fo; the math.IsInf replacement
// must keep true +Inf, -Inf (via fo <= 0) and NaN disabled while letting a
// finite 1e301 run its (never-firing) check.
func TestDynamicFoSentinels(t *testing.T) {
	plan, err := Static([]int{1000, 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	recv := []int{100, 0, 0, 0} // wildly imbalanced: factor 4 on rank 0

	for _, fo := range []float64{math.Inf(1), math.Inf(-1), 0, -3, math.NaN()} {
		d := Dynamic{Fo: fo, CheckInterval: 5}
		got, res, err := d.Check(plan, []int{1000, 1000}, recv)
		if err != nil {
			t.Fatalf("fo=%g: %v", fo, err)
		}
		if res.Rebalanced || got != plan || res.MaxF != 0 {
			t.Errorf("fo=%g should disable the check entirely, got %+v", fo, res)
		}
	}

	// Finite but enormous: the check runs (MaxF computed) and never fires.
	d := Dynamic{Fo: 1e301, CheckInterval: 5}
	_, res, err := d.Check(plan, []int{1000, 1000}, recv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalanced {
		t.Error("fo=1e301 can never be exceeded")
	}
	if res.MaxF != 4 {
		t.Errorf("fo=1e301 should still measure MaxF = 4, got %g", res.MaxF)
	}
}

func TestMortonOrderFollowsSpace(t *testing.T) {
	// Three grids along the x axis, listed out of order: the curve visits
	// them left to right.
	centers := [][3]float64{{90, 0, 0}, {10, 0, 0}, {50, 0, 0}}
	got := mortonOrder(centers, 3)
	if !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Errorf("mortonOrder = %v, want [1 2 0]", got)
	}
	// Nil or mismatched centers: grid-index order.
	if got := mortonOrder(nil, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("mortonOrder(nil) = %v", got)
	}
	// Identical centers: stable, so grid-index order again.
	same := [][3]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	if got := mortonOrder(same, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("mortonOrder(identical) = %v", got)
	}
}

func TestMortonKeyInterleaves(t *testing.T) {
	if k := mortonKey(1, 0, 0); k != 1 {
		t.Errorf("mortonKey(1,0,0) = %d, want 1", k)
	}
	if k := mortonKey(0, 1, 0); k != 2 {
		t.Errorf("mortonKey(0,1,0) = %d, want 2", k)
	}
	if k := mortonKey(0, 0, 1); k != 4 {
		t.Errorf("mortonKey(0,0,1) = %d, want 4", k)
	}
	// Keys preserve dominance: a point farther along every axis sorts later.
	if mortonKey(3, 3, 3) <= mortonKey(2, 2, 2) {
		t.Error("dominated point should have the smaller key")
	}
}

func TestKnapsackCountsProportional(t *testing.T) {
	sizes := []int{6000, 3000, 1000}
	order := []int{0, 1, 2}
	counts := knapsackCounts(sizes, 10, order)
	if got := counts[0] + counts[1] + counts[2]; got != 10 {
		t.Fatalf("counts %v sum to %d, want 10", counts, got)
	}
	if !reflect.DeepEqual(counts, []int{6, 3, 1}) {
		t.Errorf("counts = %v, want [6 3 1]", counts)
	}
}

func TestSFCPlanErrors(t *testing.T) {
	b, err := New("sfc", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(Input{}); err == nil {
		t.Error("want error for zero grids")
	}
	in := Input{Sizes: []int{100, 100}, Dims: [][3]int{{10, 10, 1}, {10, 10, 1}}, NP: 1}
	if _, err := b.Plan(in); err == nil || !strings.Contains(err.Error(), "cannot cover") {
		t.Errorf("want too-few-processors error, got %v", err)
	}
}

func TestSFCPlanOrdersRanksAlongCurve(t *testing.T) {
	b, err := New("sfc", Params{})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{
		Sizes:   []int{400, 400},
		Dims:    [][3]int{{20, 20, 1}, {20, 20, 1}},
		Centers: [][3]float64{{100, 0, 0}, {0, 0, 0}}, // grid 1 first on the curve
		NP:      4,
	}
	plan, err := b.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parts[0].Grid != 1 {
		t.Errorf("rank 0 should land on the curve-first grid 1, got grid %d", plan.Parts[0].Grid)
	}
	if plan.Tau < 0 {
		t.Errorf("Tau = %g, want >= 0", plan.Tau)
	}
}

func newDiffusive(t *testing.T, fo float64) StepBalancer {
	t.Helper()
	b, err := New("diffusive", Params{Fo: fo})
	if err != nil {
		t.Fatal(err)
	}
	return b.(StepBalancer)
}

func TestDiffusiveMigratesTowardBusyGrid(t *testing.T) {
	sizes := []int{1000, 1000}
	dims := [][3]int{{10, 10, 10}, {10, 10, 10}}
	in := Input{Sizes: sizes, Dims: dims, NP: 4}
	b := newDiffusive(t, math.Inf(1)) // default 1.15 threshold
	if !b.Active() || !b.Needs().Waits {
		t.Fatal("diffusive should be active and wait-fed")
	}
	cur, err := b.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// Np = [2, 2]; ranks 0,1 on grid 0, ranks 2,3 on grid 1. Rank 0 is
	// drowning, rank 3 idles: grid 0 should take a processor from grid 1.
	fb := Feedback{Busy: []float64{10, 5, 5, 1}, Wait: []float64{0, 5, 5, 9}}
	got, res, err := b.Rebalance(cur, in, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebalanced {
		t.Fatal("10x busy spread should trigger a migration")
	}
	if !reflect.DeepEqual(got.Np, []int{3, 1}) {
		t.Errorf("Np = %v, want [3 1]", got.Np)
	}
	for _, p := range got.Parts {
		if !p.Box.Valid() {
			t.Fatalf("rank %d box not filled", p.Rank)
		}
	}
	if res.MaxF <= 1 {
		t.Errorf("MaxF = %g, want > 1 for an imbalanced vector", res.MaxF)
	}
}

func TestDiffusiveQuietBelowThreshold(t *testing.T) {
	in := Input{Sizes: []int{1000, 1000}, Dims: [][3]int{{10, 10, 10}, {10, 10, 10}}, NP: 4}
	b := newDiffusive(t, 2) // rebalance only beyond a 2x spread
	cur, err := b.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := b.Rebalance(cur, in, Feedback{Busy: []float64{3, 2, 2, 2}, Wait: make([]float64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalanced || got != cur {
		t.Error("1.5x spread under a 2x threshold should be a no-op")
	}
	// Zero busy anywhere (no signal yet) is also a no-op, not a division.
	got, res, err = b.Rebalance(cur, in, Feedback{Busy: []float64{3, 2, 2, 0}, Wait: make([]float64, 4)})
	if err != nil || res.Rebalanced || got != cur {
		t.Errorf("zero-busy rank should suppress migration, got %+v, %v", res, err)
	}
	if _, _, err := b.Rebalance(cur, in, Feedback{Busy: []float64{1}}); err == nil {
		t.Error("want length-mismatch error")
	}
}

func TestDiffusiveFallbackDonor(t *testing.T) {
	// Busiest and idlest rank on the same grid: the donor must be another
	// grid that can spare a processor.
	in := Input{Sizes: []int{2000, 1000}, Dims: [][3]int{{20, 10, 10}, {10, 10, 10}}, NP: 4}
	b := newDiffusive(t, math.Inf(1))
	cur, err := b.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cur.Np, []int{3, 1}) {
		t.Fatalf("precondition: Np = %v, want [3 1]", cur.Np)
	}
	// Ranks 0-2 on grid 0, rank 3 on grid 1. Busiest rank 0 and idlest
	// rank 2 share grid 0; grid 1 has only one processor, so no donor
	// exists and the check must stand pat rather than starve a grid.
	fb := Feedback{Busy: []float64{10, 9, 1, 9}, Wait: make([]float64, 4)}
	got, res, err := b.Rebalance(cur, in, fb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalanced || got != cur {
		t.Error("no eligible donor: rebalance should be a no-op")
	}
}

// A grid whose every point already has its own rank takes no more, however
// busy: a subdomain holds at least one point.
func TestDiffusiveNeverOutgrowsAGrid(t *testing.T) {
	in := Input{Sizes: []int{2, 1000}, Dims: [][3]int{{2, 1, 1}, {10, 10, 10}}, NP: 4}
	cur := buildPlan(in.Sizes, []int{2, 2}, 0)
	fillBoxes(cur, in)
	fb := Feedback{Busy: []float64{10, 9, 1, 2}, Wait: make([]float64, 4)}
	got, res, err := newDiffusive(t, math.Inf(1)).Rebalance(cur, in, fb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalanced || got != cur {
		t.Errorf("grid of 2 points grown past 2 ranks: Np %v", got.Np)
	}
}

func TestMovedPoints(t *testing.T) {
	dims := [][3]int{{10, 10, 1}}
	plan, err := Static([]int{100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	SubdividePlan(plan, dims)
	if got := MovedPoints(plan, plan); got != 0 {
		t.Errorf("identical plans moved %d points, want 0", got)
	}
	// Swap the two ranks' boxes: every point changes owner.
	swapped := &Plan{Np: plan.Np, Tau: plan.Tau}
	swapped.Parts = []Part{
		{Grid: 0, Rank: 0, Box: plan.Parts[1].Box},
		{Grid: 0, Rank: 1, Box: plan.Parts[0].Box},
	}
	if got := MovedPoints(plan, swapped); got != 100 {
		t.Errorf("full swap moved %d points, want 100", got)
	}
}

func TestNewGrouper(t *testing.T) {
	for _, name := range []string{"group", "roundrobin"} {
		g, err := NewGrouper(name)
		if err != nil {
			t.Fatalf("NewGrouper(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("NewGrouper(%s).Name() = %q", name, g.Name())
		}
		groups := g.Group([]int{10, 20, 30}, func(a, b int) bool { return false }, 2)
		n := 0
		for _, members := range groups {
			n += len(members)
		}
		if n != 3 {
			t.Errorf("%s: %d grids assigned, want 3", name, n)
		}
	}
	if _, err := NewGrouper("hashmod"); err == nil || !strings.Contains(err.Error(), "unknown grouper") {
		t.Errorf("NewGrouper(hashmod) = %v, want unknown-grouper error", err)
	}
}

func TestSubdivideSlabsHelper(t *testing.T) {
	full := grid.FullBox(30, 10, 5)
	pieces := subdivideSlabs(full, 4)
	if len(pieces) != 4 {
		t.Fatalf("got %d pieces, want 4", len(pieces))
	}
	total := 0
	for _, p := range pieces {
		if !p.Valid() {
			t.Fatal("invalid slab piece")
		}
		total += p.Count()
	}
	if total != full.Count() {
		t.Errorf("slabs cover %d of %d points", total, full.Count())
	}
}
