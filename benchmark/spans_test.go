package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer(1, func(int) string { return "rank 0" })
	ln := tr.lane(0)
	ms := func(n int) time.Time { return tr.epoch.Add(time.Duration(n) * time.Millisecond) }
	// A 10 ms unit holding a 3 ms and a 5 ms child; a span outside units.
	ln.spans = []spanRec{
		{name: "step", start: int64(ms(0).Sub(tr.epoch)), end: int64(ms(10).Sub(tr.epoch)), parent: -1, unit: 0},
		{name: "flow.rhs", start: int64(ms(1).Sub(tr.epoch)), end: int64(ms(4).Sub(tr.epoch)), parent: 0, unit: 0},
		{name: "flow.adi", start: int64(ms(4).Sub(tr.epoch)), end: int64(ms(9).Sub(tr.epoch)), parent: 0, unit: 0},
		{name: "flow.rhs", start: int64(ms(20).Sub(tr.epoch)), end: int64(ms(27).Sub(tr.epoch)), parent: -1, unit: -1},
	}
	self := tr.selfMSPerUnit(1)
	for name, want := range map[string]float64{"step": 2, "flow.rhs": 3, "flow.adi": 5} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, self[name], want)
		}
	}
	if got := tr.coverage("step"); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
	if got := tr.meanMS("flow.rhs"); math.Abs(got-5) > 1e-9 {
		t.Errorf("mean of both flow.rhs spans = %v ms, want 5", got)
	}
}

func TestBeginEndNestAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	ln := none.lane(3)
	ln.setUnit(1)
	ln.begin("x")
	ln.end()
	ln.addAt("y", time.Now(), time.Now(), 0)

	tr := newTracer(2, func(int) string { return "lane" })
	l := tr.lane(1)
	l.setUnit(4)
	l.begin("outer")
	l.begin("inner")
	l.end()
	l.end()
	if len(l.spans) != 2 || l.spans[1].parent != 0 || l.spans[0].parent != -1 || l.spans[1].unit != 4 {
		t.Fatalf("spans %+v", l.spans)
	}
	if l.spans[0].end < l.spans[1].end || l.spans[1].start < l.spans[0].start {
		t.Errorf("inner span is not inside the outer one: %+v", l.spans)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	var inner *chromeEvent
	for i, ev := range doc.TraceEvents {
		if ev.Name == "inner" {
			inner = &doc.TraceEvents[i]
		}
	}
	if inner == nil || inner.Ph != "X" || inner.TID != 1 || inner.Args["parent"] != "outer" || inner.Args["unit"] != float64(4) {
		t.Errorf("inner span in the trace file: %+v", inner)
	}
}
