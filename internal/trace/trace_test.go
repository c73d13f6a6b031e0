package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// build assembles a recorder from hand-written per-rank event lists.
func build(t *testing.T, perRank [][]Event, finals []float64) *Recorder {
	t.Helper()
	rec := NewRecorder()
	rec.Reset(len(perRank))
	for r, evs := range perRank {
		for _, e := range evs {
			e.Rank = int32(r)
			rec.Buf(r).Emit(e)
		}
		rec.SetFinalClock(r, finals[r])
	}
	return rec
}

func TestSummarizeDecomposesAndReconciles(t *testing.T) {
	// Two ranks over a [0,10] window. Rank 0: 10s busy in phase 0.
	// Rank 1: 4s busy phase 0, 3s recv wait phase 0, 3s barrier wait phase 1.
	rec := build(t, [][]Event{
		{{Kind: KindCompute, Phase: 0, Start: 0, Dur: 10}},
		{
			{Kind: KindCompute, Phase: 0, Start: 0, Dur: 4},
			{Kind: KindWait, Phase: 0, Start: 4, Dur: 3, Peer: 0},
			{Kind: KindBarrier, Phase: 1, Start: 7, Dur: 3, Peer: 0},
		},
	}, []float64{10, 10})
	s := rec.Summarize()
	for _, rs := range s.Ranks {
		if got := rs.Total(); math.Abs(got-10) > 1e-12 {
			t.Errorf("rank %d total %v, want 10 (reconcile with window)", rs.Rank, got)
		}
	}
	r1 := s.Ranks[1]
	if r1.Busy != 4 || r1.RecvWait != 3 || r1.BarrierWait != 3 {
		t.Errorf("rank 1 decomposition = %+v", r1.PhaseBreakdown)
	}
	if r1.ByPhase[0].RecvWait != 3 || r1.ByPhase[1].BarrierWait != 3 {
		t.Errorf("per-phase attribution = %+v", r1.ByPhase)
	}
}

func TestSummarizeClipsToWindow(t *testing.T) {
	rec := build(t, [][]Event{
		{{Kind: KindCompute, Phase: 0, Start: 0, Dur: 10}},
	}, []float64{10})
	rec.SetWindow(2, 7)
	s := rec.Summarize()
	if got := s.Ranks[0].Busy; math.Abs(got-5) > 1e-12 {
		t.Errorf("clipped busy %v, want 5", got)
	}
}

// TestCriticalPathChainsThroughMessage: rank 1 computes 1s then waits 4s
// for a message rank 0 sent at t=4 (after 4s of compute); the path must be
// rank 0's compute + the wire, not rank 1's idle wait.
func TestCriticalPathChainsThroughMessage(t *testing.T) {
	rec := build(t, [][]Event{
		{
			{Kind: KindCompute, Phase: 2, Start: 0, Dur: 4},
			{Kind: KindSend, Phase: 2, Start: 4, Dur: 0.1, Peer: 1, Flow: 7, Bytes: 100},
		},
		{
			{Kind: KindCompute, Phase: 0, Start: 0, Dur: 1},
			{Kind: KindWait, Phase: 0, Start: 1, Dur: 4, Peer: 0, Flow: 7},
			{Kind: KindRecv, Phase: 0, Start: 5, Dur: 0, Peer: 0, Flow: 7},
			{Kind: KindCompute, Phase: 0, Start: 5, Dur: 2},
		},
	}, []float64{4.1, 7})
	cp := rec.CriticalPath()
	if math.Abs(cp.Makespan-7) > 1e-12 {
		t.Fatalf("makespan %v, want 7", cp.Makespan)
	}
	if math.Abs(cp.Covered-7) > 1e-9 {
		t.Errorf("covered %v, want 7 (full explanation)", cp.Covered)
	}
	byRank := cp.TimeByRank()
	// Rank 0 carries its 4s compute plus the 1s wire interval (send→arrival).
	if math.Abs(byRank[0]-5) > 1e-9 || math.Abs(byRank[1]-2) > 1e-9 {
		t.Errorf("path time by rank = %v, want {0:5, 1:2}", byRank)
	}
	rank, phase, _ := cp.Dominant()
	if rank != 0 || phase != 2 {
		t.Errorf("dominant = rank %d phase %d, want rank 0 phase 2", rank, phase)
	}
	if cp.Hops != 1 {
		t.Errorf("hops = %d, want 1", cp.Hops)
	}
	if got := cp.CommTime(); math.Abs(got-1) > 1e-9 {
		t.Errorf("comm time on path %v, want 1 (send at 4, arrival at 5)", got)
	}
}

// TestCriticalPathChainsThroughBarrier: the slowest rank into a barrier is
// the path, not the ranks that waited for it.
func TestCriticalPathChainsThroughBarrier(t *testing.T) {
	rec := build(t, [][]Event{
		{
			{Kind: KindCompute, Phase: 0, Start: 0, Dur: 1},
			{Kind: KindBarrier, Phase: 0, Start: 1, Dur: 5, Peer: 1},
			{Kind: KindCompute, Phase: 1, Start: 6, Dur: 2},
		},
		{
			{Kind: KindCompute, Phase: 3, Start: 0, Dur: 6},
			{Kind: KindCompute, Phase: 1, Start: 6, Dur: 1},
		},
	}, []float64{8, 7})
	cp := rec.CriticalPath()
	byRank := cp.TimeByRank()
	// Path: rank 0's trailing 2s, hop at barrier to rank 1's 6s head.
	if math.Abs(byRank[0]-2) > 1e-9 || math.Abs(byRank[1]-6) > 1e-9 {
		t.Errorf("path time by rank = %v, want {0:2, 1:6}", byRank)
	}
	rank, phase, sec := cp.Dominant()
	if rank != 1 || phase != 3 || math.Abs(sec-6) > 1e-9 {
		t.Errorf("dominant = rank %d phase %d %.3fs, want rank 1 phase 3 6s", rank, phase, sec)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	rec := build(t, [][]Event{
		{
			{Kind: KindPhase, Phase: 0, Start: 0},
			{Kind: KindCompute, Phase: 0, Start: 0, Dur: 1},
			{Kind: KindSend, Phase: 0, Start: 1, Dur: 0.1, Peer: 1, Flow: 3, Bytes: 64, Tag: 1},
			{Kind: KindSync, Phase: 0, Start: 1.1, Dur: 0.1},
		},
		{
			{Kind: KindWait, Phase: 0, Start: 0, Dur: 1.5, Peer: 0, Flow: 3, Tag: 1},
			{Kind: KindRecv, Phase: 0, Start: 1.5, Dur: 0, Peer: 0, Flow: 3, Bytes: 64, Tag: 1},
			{Kind: KindBarrier, Phase: 1, Start: 1.5, Dur: 0.5, Peer: 0},
			{Kind: KindGather, Phase: 1, Start: 2, Dur: 0.2, Bytes: 16},
		},
	}, []float64{1.2, 2.2})
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	cats := map[string]bool{}
	tids := map[float64]bool{}
	var flowS, flowF int
	for _, e := range doc.TraceEvents {
		if c, ok := e["cat"].(string); ok {
			cats[c] = true
		}
		if ph := e["ph"]; ph == "X" {
			tids[e["tid"].(float64)] = true
		} else if ph == "s" {
			flowS++
		} else if ph == "f" {
			flowF++
		}
		for _, req := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[req]; !ok {
				t.Fatalf("event missing %q: %v", req, e)
			}
		}
	}
	if len(cats) < 4 {
		t.Errorf("only %d event categories %v, want >= 4", len(cats), cats)
	}
	if len(tids) != 2 {
		t.Errorf("%d rank tracks, want 2", len(tids))
	}
	if flowS != 1 || flowF != 1 {
		t.Errorf("flow events s=%d f=%d, want 1/1", flowS, flowF)
	}
}

func TestCriticalPathReportRenders(t *testing.T) {
	rec := build(t, [][]Event{
		{{Kind: KindCompute, Phase: 0, Start: 0, Dur: 2}},
	}, []float64{2})
	var sb strings.Builder
	rec.CriticalPath().Fprint(&sb, rec)
	out := sb.String()
	for _, want := range []string{"critical path", "dominant", "by phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWindowDefaultsToMaxFinalClock(t *testing.T) {
	rec := build(t, [][]Event{{}, {}}, []float64{3, 5})
	if s, e := rec.Window(); s != 0 || e != 5 {
		t.Errorf("default window = [%v, %v], want [0, 5]", s, e)
	}
}

// A reset recorder keeps every rank's buffer: a second run of the same size
// emits without growing one, and sees none of the first run's events.
func TestResetKeepsBufferCapacity(t *testing.T) {
	const ranks, perRank = 3, 500
	rec := NewRecorder()
	run := func() {
		rec.Reset(ranks)
		for r := 0; r < ranks; r++ {
			for i := 0; i < perRank; i++ {
				rec.Buf(r).Emit(Event{Kind: KindCompute, Start: float64(i), Dur: 1})
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("same-size run on a reset recorder: %v allocations, want 0", allocs)
	}
	rec.Reset(ranks + 1)
	for r := 0; r < ranks+1; r++ {
		if n := len(rec.Events(r)); n != 0 {
			t.Errorf("rank %d holds %d events after Reset", r, n)
		}
		if c := rec.FinalClock(r); c != 0 {
			t.Errorf("rank %d final clock %v after Reset", r, c)
		}
	}
	if cap(rec.bufs[ranks-1].ev) < perRank {
		t.Error("growing the rank count dropped an earlier rank's buffer")
	}
}
