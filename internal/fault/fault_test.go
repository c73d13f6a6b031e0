package fault

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	src := `{
		"seed": 12,
		"stragglers": [{"rank": 1, "factor": 2.5, "from_step": 3, "to_step": 9}],
		"links": [{"from": 0, "to": -1, "latency_factor": 10, "bandwidth_factor": 4}],
		"losses": [{"tag": 5, "from": -1, "to": -1, "prob": 0.3}],
		"crashes": [{"rank": 2, "step": 5}]
	}`
	p, err := ParsePlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 12 || len(p.Stragglers) != 1 || len(p.Links) != 1 ||
		len(p.Losses) != 1 || len(p.Crashes) != 1 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Stragglers[0].Factor != 2.5 || p.Stragglers[0].ToStep != 9 {
		t.Errorf("straggler %+v", p.Stragglers[0])
	}
	if p.Empty() {
		t.Error("plan reported empty")
	}
	if !p.HasCrashes() {
		t.Error("plan should report crashes")
	}
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	for name, src := range map[string]string{
		"syntax":        `{"seed": `,
		"factor":        `{"stragglers": [{"rank": 0, "factor": 0.5}]}`,
		"negative rank": `{"stragglers": [{"rank": -1, "factor": 2}]}`,
		"probability":   `{"losses": [{"tag": 1, "prob": 1.5}]}`,
		"latency":       `{"links": [{"from": 0, "to": 1, "latency_factor": 0.2}]}`,
		"crash step":    `{"crashes": [{"rank": 0, "step": -2}]}`,
		"loss from":     `{"losses": [{"tag": 1, "from": -5, "to": 0, "prob": 0.5}]}`,
		"loss to":       `{"losses": [{"tag": -1, "from": -1, "to": -2, "prob": 0.5}]}`,
	} {
		if _, err := ParsePlan([]byte(src)); err == nil {
			t.Errorf("%s: bad plan accepted", name)
		}
	}
}

func TestLoadPlanFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 3, "crashes": [{"rank": 1, "step": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 || !p.HasCrashes() {
		t.Errorf("loaded %+v", p)
	}
	if _, err := LoadPlan(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNilPlanHelpers(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan not empty")
	}
	if p.HasCrashes() {
		t.Error("nil plan has crashes")
	}
	if NewEngine(nil) != nil {
		t.Error("nil plan should compile to a nil engine")
	}
}

func TestStepWindows(t *testing.T) {
	cases := []struct {
		step, from, to int
		want           bool
	}{
		{5, 0, 0, true},    // open-ended from step 0
		{5, 3, 3, true},    // to <= from: open-ended
		{2, 3, 0, false},   // before the window
		{3, 3, 6, true},    // inclusive start
		{6, 3, 6, false},   // exclusive end
		{10, 3, 0, true},   // open-ended tail
		{10, 3, 10, false}, // boundary
	}
	for _, c := range cases {
		if got := stepIn(c.step, c.from, c.to); got != c.want {
			t.Errorf("stepIn(%d, %d, %d) = %v", c.step, c.from, c.to, got)
		}
	}
}

func TestRateScaleWindowsAndStacking(t *testing.T) {
	e := NewEngine(&Plan{Stragglers: []Straggler{
		{Rank: 1, Factor: 2, FromStep: 2, ToStep: 4},
		{Rank: 1, Factor: 3, FromStep: 3, ToStep: 5},
	}})
	e.Attach(2)
	// Outside the measured loop faults are inert.
	if s := e.RateScale(1, 0); s != 1 {
		t.Errorf("preprocessing scale = %v", s)
	}
	e.BeginStep(1, 2)
	if s := e.RateScale(1, 0); s != 0.5 {
		t.Errorf("step 2 scale = %v, want 0.5", s)
	}
	e.BeginStep(1, 3)
	if s := e.RateScale(1, 0); s != 0.5/3 {
		t.Errorf("step 3 stacked scale = %v, want %v", s, 0.5/3)
	}
	e.BeginStep(1, 5)
	if s := e.RateScale(1, 0); s != 1 {
		t.Errorf("step 5 scale = %v, want 1", s)
	}
	// The healthy rank is untouched.
	e.BeginStep(0, 3)
	if s := e.RateScale(0, 0); s != 1 {
		t.Errorf("healthy rank scale = %v", s)
	}
}

func TestLinkScaleMatchingAndWildcards(t *testing.T) {
	e := NewEngine(&Plan{Links: []LinkFault{
		{From: 0, To: -1, LatencyFactor: 10, BandwidthFactor: 4},
	}})
	e.Attach(3)
	e.BeginStep(0, 1)
	lat, bw := e.LinkScale(0, 2, 0)
	if lat != 10 || bw != 0.25 {
		t.Errorf("degraded link scales = %v, %v", lat, bw)
	}
	// Reverse direction unaffected (From must match).
	e.BeginStep(2, 1)
	lat, bw = e.LinkScale(2, 0, 0)
	if lat != 1 || bw != 1 {
		t.Errorf("reverse link scales = %v, %v", lat, bw)
	}
}

func TestDropDeterministicAndSeedSensitive(t *testing.T) {
	plan := &Plan{Seed: 1, Losses: []Loss{{Tag: -1, From: -1, To: -1, Prob: 0.5}}}
	a := NewEngine(plan)
	b := NewEngine(plan)
	a.Attach(2)
	b.Attach(2)
	a.BeginStep(0, 1)
	b.BeginStep(0, 1)
	drops := 0
	for seq := uint64(0); seq < 1000; seq++ {
		da := a.Drop(0, 1, 5, seq)
		if db := b.Drop(0, 1, 5, seq); da != db {
			t.Fatalf("seq %d: nondeterministic drop", seq)
		}
		if da {
			drops++
		}
	}
	// Prob 0.5 over 1000 trials: expect a healthy spread around 500.
	if drops < 350 || drops > 650 {
		t.Errorf("dropped %d of 1000 at prob 0.5", drops)
	}
	// A different seed drops a different set.
	c := NewEngine(&Plan{Seed: 2, Losses: plan.Losses})
	c.Attach(2)
	c.BeginStep(0, 1)
	diff := 0
	for seq := uint64(0); seq < 1000; seq++ {
		if a.Drop(0, 1, 5, seq) != c.Drop(0, 1, 5, seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed change did not alter the drop set")
	}
}

func TestDropInertOutsideMeasuredLoop(t *testing.T) {
	e := NewEngine(&Plan{Losses: []Loss{{Tag: -1, From: -1, To: -1, Prob: 1}}})
	e.Attach(2)
	if e.Drop(0, 1, 5, 7) {
		t.Error("dropped during preprocessing (step -1)")
	}
	e.BeginStep(0, 0)
	if !e.Drop(0, 1, 5, 7) {
		t.Error("prob-1 loss did not drop inside the loop")
	}
}

func TestCrashNowConsumesOnceAcrossAttach(t *testing.T) {
	e := NewEngine(&Plan{Crashes: []Crash{{Rank: 1, Step: 4}}})
	e.Attach(3)
	if e.CrashNow(1, 3) || e.CrashNow(0, 4) {
		t.Error("crash fired for wrong rank or step")
	}
	if !e.CrashNow(1, 4) {
		t.Error("scheduled crash did not fire")
	}
	// Restart attempt: re-attach must not re-fire the consumed crash.
	e.Attach(2)
	if e.CrashNow(1, 4) {
		t.Error("consumed crash re-fired after restart")
	}
}

func TestHash01Range(t *testing.T) {
	for seq := uint64(0); seq < 10000; seq++ {
		v := hash01(1, 2, 3, 4, seq)
		if v < 0 || v >= 1 {
			t.Fatalf("hash01 out of range: %v", v)
		}
	}
}

// FuzzParsePlan: whatever the bytes, ParsePlan returns a plan or an error and
// never panics, and a plan it accepts marshals to bytes that parse again and
// marshal to the same bytes.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		back, err := ParsePlan(first)
		if err != nil {
			t.Fatalf("marshaled plan %s does not parse: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("plan changes across a round trip (%v):\n %s\n %s", err, first, second)
		}
	})
}
