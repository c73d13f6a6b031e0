package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "unit_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := func(center float64) []float64 {
		return []float64{center * 0.8, center * 1.2, center * 0.85, center * 1.15, center, center * 1.1}
	}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"within bound", lower, steady(100), steady(108), verdictOK},
		{"slower past the bound", lower, steady(100), steady(112), verdictRegressed},
		{"faster is no regression", lower, steady(100), steady(50), verdictOK},
		{"lower throughput past the bound", higher, steady(100), steady(88), verdictRegressed},
		{"higher throughput is no regression", higher, steady(100), steady(150), verdictOK},
		{"noise wider than the bound, medians equal", lower, noisy(100), steady(100), verdictUnresolved},
		{"noise wider than the bound hides a regression", lower, steady(100), noisy(130), verdictUnresolved},
		{"single runs have no spread to show", lower, []float64{100}, []float64{105}, verdictOK},
	} {
		if got, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w1"}, {Name: "w2"}},
		EndToEnd: []metricSpec{
			{Name: "unit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	set := func(w1ms, w2ms float64) *resultFile {
		f := &resultFile{}
		for run := 0; run < 4; run++ {
			wobble := 1 + 0.002*float64(run)
			for name, ms := range map[string]float64{"w1": w1ms, "w2": w2ms} {
				f.Runs = append(f.Runs, runResult{Workload: name, Metrics: map[string]value{
					"unit_ms_p50":      {Value: ms * wobble, Unit: "ms"},
					"throughput_per_s": {Value: 1000 / ms / wobble, Unit: "1/s"},
				}})
			}
		}
		// A traced run of the same workload must not count.
		f.Runs = append(f.Runs, runResult{Workload: "w1", Traced: true, Metrics: map[string]value{
			"unit_ms_p50": {Value: 1e9, Unit: "ms"}}})
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(10, 50))
	same := write("b.json", set(10.1, 49.5))
	worse := write("c.json", set(10, 60))

	var out bytes.Buffer
	ok, err := compareFiles(&out, sp, base, same)
	if err != nil || !ok {
		t.Errorf("two agreeing sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, sp, base, worse)
	if err != nil || ok {
		t.Errorf("w2 slowed by a fifth: ok=%v err=%v\n%s", ok, err, out.String())
	}
	var regressed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, verdictRegressed) {
			regressed = append(regressed, strings.Fields(line)[0]+" "+strings.Fields(line)[1])
		}
	}
	if want := "w2 unit_ms_p50,w2 throughput_per_s"; strings.Join(regressed, ",") != want {
		t.Errorf("regressed rows %v, want %s\n%s", regressed, want, out.String())
	}
}

func TestChoosePar(t *testing.T) {
	for _, tc := range []struct {
		asked, cpus, want int
		refused           bool
	}{
		{0, 1, 1, false},
		{0, 2, 2, false},
		{0, 16, 4, false},
		{2, 2, 2, false},
		{4, 2, 0, true}, // more procs than CPUs: the silent "1.0x by construction" column
		{-1, 2, 0, true},
	} {
		got, err := choosePar(tc.asked, tc.cpus)
		if (err != nil) != tc.refused || got != tc.want {
			t.Errorf("choosePar(%d, %d CPUs) = %d, %v; want %d, refused=%v", tc.asked, tc.cpus, got, err, tc.want, tc.refused)
		}
	}
	if oneCPUOmissions(1)["speedup_np"] == "" || oneCPUOmissions(1)["unit_ms_p50_1p"] == "" {
		t.Error("on one CPU speedup_np and unit_ms_p50_1p must be omitted with a reason")
	}
	if oneCPUOmissions(2) != nil {
		t.Error("on two CPUs nothing is omitted")
	}
}
