package overd

import (
	"math"
	"strings"
	"testing"
)

func TestPublicAPICaseConstructors(t *testing.T) {
	for name, mk := range map[string]func(float64) *Case{
		"airfoil":   OscillatingAirfoil,
		"deltawing": DescendingDeltaWing,
		"storesep":  StoreSeparation,
	} {
		c := mk(0.05)
		if c == nil || c.Sys.NPoints() == 0 {
			t.Errorf("%s: empty case", name)
		}
	}
}

func TestMachineByName(t *testing.T) {
	for _, n := range []string{"SP2", "SP", "YMP", "C90"} {
		if _, err := MachineByName(n); err != nil {
			t.Errorf("MachineByName(%q): %v", n, err)
		}
	}
	if _, err := MachineByName("nope"); err == nil {
		t.Error("unknown machine should error")
	}
}

func TestRunPublicAPI(t *testing.T) {
	res, err := Run(Config{
		Case: OscillatingAirfoil(0.05), Nodes: 6, Machine: SP2(),
		Steps: 2, Fo: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MflopsPerNode() <= 0 || res.PctConnect() <= 0 {
		t.Errorf("stats: %v %v", res.MflopsPerNode(), res.PctConnect())
	}
}

func TestRunWithSampling(t *testing.T) {
	res, err := Run(Config{
		Case: OscillatingAirfoil(0.05), Nodes: 3, Machine: SP2(),
		Steps: 2, Fo: math.Inf(1),
		Sample: &SampleSpec{FieldGrid: 2, FieldK: -1, SurfaceGrid: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Field) == 0 {
		t.Error("no field samples")
	}
	if len(res.Surface) == 0 {
		t.Error("no surface samples")
	}
	// Field values physical.
	for _, s := range res.Field[:10] {
		if s.Rho <= 0 || s.P <= 0 || math.IsNaN(s.Mach) {
			t.Fatalf("unphysical sample %+v", s)
		}
	}
}

func TestRunTable2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("table run")
	}
	rows, err := RunTable2(Options{Scale: 0.05, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Point counts scale by ~4x between rows.
	if !(rows[0].Points < rows[1].Points && rows[1].Points < rows[2].Points) {
		t.Errorf("scale-up points: %d %d %d", rows[0].Points, rows[1].Points, rows[2].Points)
	}
	var sb strings.Builder
	FprintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "Coarsened") {
		t.Error("table output missing rows")
	}
}

func TestRunPerfTableSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("table run")
	}
	// A reduced Table-1-style sweep over two node counts.
	tbl, err := newSweep(Options{Scale: 0.05, Steps: 2}).perfTable("mini", "airfoil", []int{6, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || len(tbl.FigSP2) != 2 {
		t.Fatalf("rows %d figs %d", len(tbl.Rows), len(tbl.FigSP2))
	}
	if tbl.Rows[0].SpeedupSP2 != 1 {
		t.Errorf("base speedup = %v", tbl.Rows[0].SpeedupSP2)
	}
	if tbl.Rows[1].SpeedupSP2 <= tbl.Rows[0].SpeedupSP2*0.5 {
		t.Errorf("speedup collapsed: %+v", tbl.Rows)
	}
	var sb strings.Builder
	FprintPerfTable(&sb, tbl)
	if !strings.Contains(sb.String(), "Mflops/node") {
		t.Error("perf table output malformed")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Steps <= 0 {
		t.Errorf("defaults: %+v", o)
	}
}

func TestEstimateSerialTimePublic(t *testing.T) {
	m := YMP864()
	if got := EstimateSerialTime(m.BaseMflops*1e6, m); math.Abs(got-1) > 0.02 {
		t.Errorf("EstimateSerialTime = %v", got)
	}
}

func TestAdaptivePublicAPI(t *testing.T) {
	body := Box{Min: Vec3{X: -1, Y: -1, Z: -1}, Max: Vec3{X: 1, Y: 1, Z: 1}}
	cfg := AdaptiveConfig{
		Domain:     Box{Min: Vec3{X: -4, Y: -4, Z: -4}, Max: Vec3{X: 4, Y: 4, Z: 4}},
		H0:         1,
		BrickCells: 4,
		MaxLevel:   1,
	}
	sys := GenerateAdaptive(cfg, ProximityIndicator(body, 1))
	if len(sys.Bricks) == 0 {
		t.Fatal("no bricks")
	}
	ru, err := NewAdaptiveRunner(sys, 2, Freestream{Mach: 0.5}, true)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ru.Run(SP2(), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Time <= 0 {
		t.Errorf("stats %+v", stats)
	}
}

func TestFprintSpeedupFigure(t *testing.T) {
	tbl := &PerfTable{
		Title: "Figure test",
		FigSP2: []ModuleSpeedup{
			{Nodes: 6, Flow: 1, Connect: 1, Combined: 1},
			{Nodes: 24, Flow: 3.5, Connect: 1.3, Combined: 3.0},
		},
		FigSP: []ModuleSpeedup{
			{Nodes: 6, Flow: 1, Connect: 1, Combined: 1},
			{Nodes: 24, Flow: 3.7, Connect: 1.4, Combined: 3.2},
		},
	}
	for _, m := range []string{"SP2", "SP"} {
		var sb strings.Builder
		FprintSpeedupFigure(&sb, tbl, m)
		out := sb.String()
		for _, want := range []string{"OVERFLOW", "DCF3D", "combined", "ideal", m} {
			if !strings.Contains(out, want) {
				t.Errorf("%s figure missing %q", m, want)
			}
		}
	}
}
