package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// refWriteChromeTrace is the encoder AppendChromeTrace replaced: one
// chromeEvent, one args map and one json.Marshal per record. It is the
// reference the fuzz target holds AppendChromeTrace to, byte for byte.
func refWriteChromeTrace(rec *Recorder, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	emit(chromeEvent{Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "overd virtual machine"}})
	for r := 0; r < rec.NRanks(); r++ {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: 0, TID: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}}); err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "thread_sort_index", Ph: "M", PID: 0, TID: r,
			Args: map[string]any{"sort_index": r}}); err != nil {
			return err
		}
	}

	for r := 0; r < rec.NRanks(); r++ {
		for _, e := range rec.Events(r) {
			ce := chromeEvent{PID: 0, TID: r, TS: e.Start * usPerSec}
			switch e.Kind {
			case KindCompute, KindElapse:
				ce.Name, ce.Cat, ce.Ph = rec.PhaseLabel(int(e.Phase)), "compute", "X"
				ce.Dur = e.Dur * usPerSec
			case KindSend:
				ce.Name, ce.Cat, ce.Ph = "send "+rec.TagLabel(int(e.Tag)), "comm", "X"
				ce.Dur = e.Dur * usPerSec
				ce.Args = map[string]any{"to": e.Peer, "bytes": e.Bytes}
				if err := emit(ce); err != nil {
					return err
				}
				if e.Flow == 0 {
					continue
				}
				ce = chromeEvent{Name: "msg", Cat: "comm", Ph: "s", PID: 0, TID: r,
					TS: e.Start * usPerSec, ID: fmt.Sprintf("%x", e.Flow)}
			case KindRecv:
				ce.Name, ce.Cat, ce.Ph = "recv "+rec.TagLabel(int(e.Tag)), "comm", "i"
				ce.S = "t"
				ce.Args = map[string]any{"from": e.Peer, "bytes": e.Bytes}
				if err := emit(ce); err != nil {
					return err
				}
				if e.Flow == 0 {
					continue
				}
				ce = chromeEvent{Name: "msg", Cat: "comm", Ph: "f", BP: "e", PID: 0, TID: r,
					TS: e.Start * usPerSec, ID: fmt.Sprintf("%x", e.Flow)}
			case KindWait:
				ce.Name, ce.Cat, ce.Ph = "recv-wait", "wait", "X"
				ce.Dur = e.Dur * usPerSec
				ce.Args = map[string]any{"from": e.Peer, "tag": rec.TagLabel(int(e.Tag))}
			case KindBarrier:
				ce.Name, ce.Cat, ce.Ph = "barrier-wait", "barrier", "X"
				ce.Dur = e.Dur * usPerSec
				ce.Args = map[string]any{"released_by": e.Peer}
			case KindSync:
				ce.Name, ce.Cat, ce.Ph = "barrier-sync", "barrier", "X"
				ce.Dur = e.Dur * usPerSec
			case KindGather:
				ce.Name, ce.Cat, ce.Ph = "allgather", "collective", "X"
				ce.Dur = e.Dur * usPerSec
				ce.Args = map[string]any{"bytes": e.Bytes}
			case KindFaultWait:
				ce.Name, ce.Cat, ce.Ph = "fault-wait", "wait", "X"
				ce.Dur = e.Dur * usPerSec
				ce.Args = map[string]any{"peer": e.Peer, "tag": rec.TagLabel(int(e.Tag))}
			case KindPhase:
				ce.Name, ce.Cat, ce.Ph = "phase → "+rec.PhaseLabel(int(e.Phase)), "phase", "i"
				ce.S = "t"
			default:
				continue
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// everyKind is a two-rank recording with one event of each kind (and an
// unknown one), flows on and off, and labels from par-like namers.
func everyKind() *Recorder {
	rec := NewRecorder()
	rec.Reset(2)
	rec.SetPhaseLabel(func(p int) string { return [...]string{"flow", "motion", "connect"}[p%3] })
	rec.SetTagLabel(func(t int) string { return [...]string{"halo", "search-req", "collective"}[t%3] })
	evs := []Event{
		{Kind: KindCompute, Phase: 0, Start: 0, Dur: 1.25e-3},
		{Kind: KindElapse, Phase: 1, Start: 1.25e-3, Dur: 3e-9},
		{Kind: KindSend, Tag: 1, Peer: 1, Bytes: 4096, Flow: 0x1f, Start: 2e-3, Dur: 4e-5},
		{Kind: KindSend, Tag: 2, Peer: 1, Bytes: 8, Start: 2.1e-3, Dur: 4e-5},
		{Kind: KindWait, Tag: 1, Peer: 0, Flow: 0x1f, Start: 2.2e-3, Dur: 0.5},
		{Kind: KindRecv, Tag: 1, Peer: 0, Bytes: 4096, Flow: 0x1f, Start: 0.5022, Dur: 7},
		{Kind: KindRecv, Tag: 0, Peer: 0, Bytes: 1, Start: 0.6},
		{Kind: KindBarrier, Phase: 2, Peer: 1, Start: 0.7, Dur: 1e-7},
		{Kind: KindSync, Phase: 2, Start: 0.8, Dur: 2.5e-6},
		{Kind: KindGather, Bytes: 96, Start: 0.9, Dur: 1e16},
		{Kind: KindFaultWait, Tag: 2, Peer: 1, Start: 1, Dur: 0.25},
		{Kind: KindPhase, Phase: 2, Start: 1.25},
		{Kind: numKinds, Start: 2, Dur: 1},
	}
	for r := 0; r < 2; r++ {
		for _, e := range evs {
			rec.Buf(r).Emit(e)
		}
	}
	return rec
}

// refChrome is refWriteChromeTrace's document.
func refChrome(t *testing.T, rec *Recorder) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := refWriteChromeTrace(rec, &buf)
	return buf.Bytes(), err
}

func TestAppendChromeTraceEqualsReference(t *testing.T) {
	rec := everyKind()
	want, err := refChrome(t, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.AppendChromeTrace([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Errorf("AppendChromeTrace differs from the reference writer:\n got %s\nwant %s", got, want)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteChromeTrace differs from the reference writer (err %v)", err)
	}
}

// A document appended into a buffer that can hold it costs no allocation:
// no record allocates.
func TestAppendChromeTraceZeroAlloc(t *testing.T) {
	rec := everyKind()
	doc, err := rec.AppendChromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(doc))
	if allocs := testing.AllocsPerRun(20, func() {
		buf, _ = rec.AppendChromeTrace(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendChromeTrace into a sufficient buffer: %v allocations, want 0", allocs)
	}
	if !bytes.Equal(buf, doc) {
		t.Error("the document appended in place differs from the one appended to nil")
	}
}

// FuzzChromeEvent holds AppendChromeTrace to the reference writer on one
// rank's pair of arbitrary events — any kind, labels, times, peers, sizes
// and flow ids: the same bytes, or both refusing a time JSON cannot hold.
func FuzzChromeEvent(f *testing.F) {
	f.Add(uint8(KindSend), uint8(KindRecv), "halo", "flow", 1e-3, 4e-5, int32(3), int64(4096), uint64(0xabc))
	f.Fuzz(func(t *testing.T, k1, k2 uint8, tag, phase string, start, dur float64, peer int32, nbytes int64, flow uint64) {
		rec := NewRecorder()
		rec.Reset(2)
		rec.SetTagLabel(func(int) string { return tag })
		rec.SetPhaseLabel(func(int) string { return phase })
		rec.Buf(0).Emit(Event{Kind: Kind(k1), Peer: peer, Bytes: nbytes, Flow: flow, Start: start, Dur: dur})
		rec.Buf(1).Emit(Event{Kind: Kind(k2), Peer: -peer, Bytes: -nbytes, Flow: flow >> 3, Start: dur, Dur: start})
		want, werr := refChrome(t, rec)
		got, gerr := rec.AppendChromeTrace(nil)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("reference error %v, AppendChromeTrace error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendChromeTrace differs from the reference writer:\n got %q\nwant %q", got, want)
		}
		if gerr == nil && !json.Valid(got) {
			t.Fatalf("AppendChromeTrace wrote invalid JSON: %q", got)
		}
	})
}

// decodeTraceDoc parses a Chrome trace document into generic events.
func decodeTraceDoc(t *testing.T, doc []byte) []map[string]any {
	t.Helper()
	var parsed struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("merged document is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", parsed.DisplayTimeUnit)
	}
	return parsed.TraceEvents
}

func TestMergeChromeTraceIntoEmptyDoc(t *testing.T) {
	merged, err := MergeChromeTrace(nil, 1, "service wall clock",
		map[int]string{0: "lifecycle"},
		[]ExtraSlice{{Name: "execute", Cat: "service", TID: 0, StartUS: 10, DurUS: 250,
			Args: map[string]any{"attempt": 1}}})
	if err != nil {
		t.Fatal(err)
	}
	evs := decodeTraceDoc(t, merged)
	var haveProc, haveThread, haveSlice bool
	for _, e := range evs {
		switch e["name"] {
		case "process_name":
			haveProc = e["args"].(map[string]any)["name"] == "service wall clock"
		case "thread_name":
			haveThread = e["args"].(map[string]any)["name"] == "lifecycle"
		case "execute":
			haveSlice = e["ph"] == "X" && e["ts"] == 10.0 && e["dur"] == 250.0 && e["pid"] == 1.0
		}
	}
	if !haveProc || !haveThread || !haveSlice {
		t.Errorf("merged doc missing pieces: proc=%v thread=%v slice=%v in %s",
			haveProc, haveThread, haveSlice, merged)
	}
}

func TestMergeChromeTracePreservesOriginalEvents(t *testing.T) {
	base := []byte(`{"traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"overd virtual machine"}},
{"name":"flow","cat":"compute","ph":"X","ts":5,"dur":100,"pid":0,"tid":2}
],"displayTimeUnit":"ms"}`)
	merged, err := MergeChromeTrace(base, 1, "service", nil,
		[]ExtraSlice{{Name: "queue", TID: 0, StartUS: 0, DurUS: 42}})
	if err != nil {
		t.Fatal(err)
	}
	evs := decodeTraceDoc(t, merged)
	pids := map[float64]int{}
	var haveFlow, haveQueue bool
	for _, e := range evs {
		pids[e["pid"].(float64)]++
		if e["name"] == "flow" && e["pid"] == 0.0 && e["dur"] == 100.0 {
			haveFlow = true
		}
		if e["name"] == "queue" && e["pid"] == 1.0 && e["dur"] == 42.0 {
			haveQueue = true
		}
	}
	if !haveFlow {
		t.Error("original virtual-time slice lost in merge")
	}
	if !haveQueue {
		t.Error("wall-clock slice missing from merge")
	}
	if pids[0] == 0 || pids[1] == 0 {
		t.Errorf("merged doc should hold both clock tracks, got pids %v", pids)
	}
}

func TestMergeChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := MergeChromeTrace([]byte("not json"), 1, "p", nil, nil); err == nil {
		t.Fatal("garbage document accepted")
	}
}
