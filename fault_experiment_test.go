package overd

import "testing"

// TestTable5FaultedStragglerSignature runs the robustness headline sweep at
// reduced scale and checks its qualitative signature: a rank computing at a
// third of its rated speed must cost the run real virtual time under both
// balancing schemes, and the resulting rows must stay physically sensible.
func TestTable5FaultedStragglerSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("long fault sweep")
	}
	rows, err := newSweep(Options{Scale: 0.05, Steps: 6}).table5Faulted([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Nodes != 16 {
		t.Fatalf("rows %+v", rows)
	}
	r := rows[0]
	if r.SlowdownStat <= 1.02 {
		t.Errorf("static scheme hid a 3x straggler: slowdown %.3f", r.SlowdownStat)
	}
	if r.SlowdownDyn <= 1.0 {
		t.Errorf("dynamic scheme reported a free straggler: slowdown %.3f", r.SlowdownDyn)
	}
	for _, pct := range []float64{r.PctDCFStat, r.PctDCFDyn} {
		if pct <= 0 || pct >= 100 {
			t.Errorf("connectivity share %.1f%% out of range", pct)
		}
	}
}

// TestFaultPlanFacadeRoundTrip exercises the top-level fault-plan facade:
// the Table5FaultPlan must survive a JSON round trip through ParseFaultPlan.
func TestFaultPlanFacadeRoundTrip(t *testing.T) {
	p, err := ParseFaultPlan([]byte(`{
		"seed": 1,
		"stragglers": [{"rank": 1, "factor": 3, "from_step": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Table5FaultPlan()
	if p.Seed != want.Seed || len(p.Stragglers) != 1 ||
		p.Stragglers[0] != want.Stragglers[0] {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
	if _, err := ParseFaultPlan([]byte(`{"stragglers": [{"rank": 0, "factor": 0}]}`)); err == nil {
		t.Error("invalid straggler factor accepted")
	}
}
