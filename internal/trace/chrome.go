package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"overd/internal/jsonenc"
)

// chromeEvent is one entry of the catapult trace-event JSON schema
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Virtual seconds map to microseconds so Perfetto's time axis reads
// naturally; each rank is one thread track of a single process.
// MergeChromeTrace encodes its events through encoding/json; the recorder's
// own export writes the same fields in the same order (chromeRec).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const usPerSec = 1e6

// chromeRecRoom is room for an event's records unless its labels are long.
const chromeRecRoom = 1024

// The document around the per-rank records: its head carries the process
// record, every record after it starts with ",\n".
const (
	chromeHead = `{"traceEvents":[` + "\n" +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"overd virtual machine"}}`
	chromeTail = "\n],\"displayTimeUnit\":\"ms\"}\n"
)

// WriteChromeTrace exports the recorded run in the Chrome trace-event JSON
// format: one thread track per rank, busy slices named by phase, wait and
// barrier slices in their own categories, and send→recv flow arrows. The
// output loads in chrome://tracing and Perfetto. It writes the bytes of
// AppendChromeTrace.
func (rec *Recorder) WriteChromeTrace(w io.Writer) error {
	b, err := rec.AppendChromeTrace(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendChromeTrace appends the document WriteChromeTrace writes to dst and
// returns the extended buffer — byte for byte what encoding/json makes of
// one chromeEvent per record, formatted in one pass with nothing allocated
// per event: into a dst that can hold it, nothing at all. A time that is not
// finite has no JSON form: dst comes back unchanged with an error.
func (rec *Recorder) AppendChromeTrace(dst []byte) ([]byte, error) {
	b := append(dst, chromeHead...)
	for r := range rec.bufs {
		b = appendRankMeta(b, r)
	}
	var cs [2]chromeRec
	for r := range rec.bufs {
		for i := range rec.bufs[r].ev {
			if cap(b)-len(b) < chromeRecRoom {
				b = slices.Grow(b, max(len(b), 4096)) // double, as RankBuf.grow does
			}
			for j := range rec.chromeRecs(&cs, r, &rec.bufs[r].ev[i]) {
				c := &cs[j]
				if math.IsInf(c.ts, 0) || math.IsNaN(c.ts) || math.IsInf(c.dur, 0) || math.IsNaN(c.dur) {
					return dst, fmt.Errorf("trace: chrome export: rank %d times %v+%v have no JSON form", r, c.ts, c.dur)
				}
				b = c.appendTo(b)
			}
		}
	}
	return append(b, chromeTail...), nil
}

// appendRankMeta appends rank r's thread_name and thread_sort_index records.
func appendRankMeta(b []byte, r int) []byte {
	b = append(b, ",\n"+`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, `,"args":{"name":"rank `...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, `"}},`+"\n"+`{"name":"thread_sort_index","ph":"M","ts":0,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, `,"args":{"sort_index":`...)
	b = strconv.AppendInt(b, int64(r), 10)
	return append(b, "}}"...)
}

// chromeRec is one record of a rank's track: chromeEvent's fields (pid is
// always 0) with the name split into a constant prefix and a label, the id
// kept as the flow number it prints in hex, and the args as at most two
// members in key order.
type chromeRec struct {
	prefix, label string
	cat, ph       string
	ts, dur       float64
	tid           int
	id            uint64
	bp, s         string
	args          [2]chromeArg
	nargs         int
}

// chromeArg is one args member: the string str when isStr, else the
// integer num.
type chromeArg struct {
	key   string
	str   string
	isStr bool
	num   int64
}

// chromeRecs fills cs with the records of rank r's event e and returns how
// many: a send or receive with a flow id is two — its slice and an end of
// the flow arrow — an unknown kind none.
func (rec *Recorder) chromeRecs(cs *[2]chromeRec, r int, e *Event) int {
	c := &cs[0]
	*c = chromeRec{ph: "X", ts: e.Start * usPerSec, dur: e.Dur * usPerSec, tid: r}
	switch e.Kind {
	case KindCompute, KindElapse:
		// Busy slices are named by phase so every module gets a stable
		// color in the viewer.
		c.label, c.cat = rec.PhaseLabel(int(e.Phase)), "compute"
	case KindSend:
		c.prefix, c.label, c.cat = "send ", rec.TagLabel(int(e.Tag)), "comm"
		c.args[0], c.args[1], c.nargs = chromeArg{key: "bytes", num: e.Bytes}, chromeArg{key: "to", num: int64(e.Peer)}, 2
		if e.Flow != 0 {
			// Flow start pinned inside the send slice.
			cs[1] = chromeRec{label: "msg", cat: "comm", ph: "s", ts: c.ts, tid: r, id: e.Flow}
			return 2
		}
	case KindRecv:
		c.prefix, c.label, c.cat, c.ph, c.dur, c.s = "recv ", rec.TagLabel(int(e.Tag)), "comm", "i", 0, "t"
		c.args[0], c.args[1], c.nargs = chromeArg{key: "bytes", num: e.Bytes}, chromeArg{key: "from", num: int64(e.Peer)}, 2
		if e.Flow != 0 {
			cs[1] = chromeRec{label: "msg", cat: "comm", ph: "f", ts: c.ts, tid: r, id: e.Flow, bp: "e"}
			return 2
		}
	case KindWait:
		c.label, c.cat = "recv-wait", "wait"
		c.args[0], c.args[1], c.nargs = chromeArg{key: "from", num: int64(e.Peer)}, chromeArg{key: "tag", str: rec.TagLabel(int(e.Tag)), isStr: true}, 2
	case KindBarrier:
		c.label, c.cat = "barrier-wait", "barrier"
		c.args[0], c.nargs = chromeArg{key: "released_by", num: int64(e.Peer)}, 1
	case KindSync:
		c.label, c.cat = "barrier-sync", "barrier"
	case KindGather:
		c.label, c.cat = "allgather", "collective"
		c.args[0], c.nargs = chromeArg{key: "bytes", num: e.Bytes}, 1
	case KindFaultWait:
		c.label, c.cat = "fault-wait", "wait"
		c.args[0], c.args[1], c.nargs = chromeArg{key: "peer", num: int64(e.Peer)}, chromeArg{key: "tag", str: rec.TagLabel(int(e.Tag)), isStr: true}, 2
	case KindPhase:
		c.prefix, c.label, c.cat, c.ph, c.dur, c.s = "phase → ", rec.PhaseLabel(int(e.Phase)), "phase", "i", 0, "t"
	default:
		return 0
	}
	return 1
}

// appendTo appends the record, preceded by its separator.
func (c *chromeRec) appendTo(b []byte) []byte {
	b = append(b, ",\n"+`{"name":`...)
	b = jsonenc.AppendString(b, c.prefix, c.label)
	b = appendField(b, "cat", c.cat)
	b = appendField(b, "ph", c.ph)
	b = append(b, `,"ts":`...)
	b = jsonenc.AppendFloat(b, c.ts)
	if c.dur != 0 {
		b = append(b, `,"dur":`...)
		b = jsonenc.AppendFloat(b, c.dur)
	}
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(c.tid), 10)
	if c.id != 0 {
		b = append(b, `,"id":"`...)
		b = append(strconv.AppendUint(b, c.id, 16), '"')
	}
	b = appendField(b, "bp", c.bp)
	b = appendField(b, "s", c.s)
	for i, a := range c.args[:c.nargs] {
		if i == 0 {
			b = append(b, `,"args":{"`...)
		} else {
			b = append(b, `,"`...)
		}
		b = append(b, a.key...)
		b = append(b, `":`...)
		if a.isStr {
			b = jsonenc.AppendString(b, "", a.str)
		} else {
			b = strconv.AppendInt(b, a.num, 10)
		}
	}
	if c.nargs > 0 {
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendField appends the string member key of the encoder's own — plain
// ASCII — value, omitted when empty.
func appendField(b []byte, key, val string) []byte {
	if val == "" {
		return b
	}
	b = append(append(append(b, `,"`...), key...), `":"`...)
	return append(append(b, val...), '"')
}

// ExtraSlice is one caller-timed complete slice to merge into a Chrome
// trace document as an additional process: the job service uses it to put
// wall-clock lifecycle spans next to the solver's virtual-time timeline.
// Times are microseconds on the extra process's own clock track (for the
// service: microseconds since the job entered the server).
type ExtraSlice struct {
	Name    string
	Cat     string
	TID     int
	StartUS float64
	DurUS   float64
	Args    map[string]any
}

// MergeChromeTrace parses a Chrome trace-event JSON document (as written by
// WriteChromeTrace; nil/empty doc means an empty trace) and appends one
// extra process of caller-timed slices, returning the merged document.
//
// The merged file intentionally carries two different clocks: the original
// process's events are virtual microseconds (the simulated machine), the
// extra process's are wall-clock microseconds (the service). Chrome's time
// axis is shared, so the two tracks line up only by construction — both
// start at zero — but that is exactly the point: one file answers "where
// did the wall clock go?" directly underneath "where did the virtual clock
// go?". threads names the extra process's thread tracks (tid → name);
// slices must reference tids from it or plain unnamed tids.
func MergeChromeTrace(doc []byte, pid int, procName string, threads map[int]string, slices []ExtraSlice) ([]byte, error) {
	var parsed struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	parsed.DisplayTimeUnit = "ms"
	if len(doc) > 0 {
		if err := json.Unmarshal(doc, &parsed); err != nil {
			return nil, fmt.Errorf("trace: parsing chrome document to merge: %w", err)
		}
	}
	extra := make([]chromeEvent, 0, len(slices)+1+len(threads))
	extra = append(extra, chromeEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": procName}})
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		extra = append(extra, chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": threads[tid]}})
	}
	for _, s := range slices {
		extra = append(extra, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", PID: pid, TID: s.TID,
			TS: s.StartUS, Dur: s.DurUS, Args: s.Args,
		})
	}
	for _, e := range extra {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("trace: encoding merged event: %w", err)
		}
		parsed.TraceEvents = append(parsed.TraceEvents, b)
	}
	out, err := json.Marshal(struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}{parsed.TraceEvents, parsed.DisplayTimeUnit})
	if err != nil {
		return nil, fmt.Errorf("trace: encoding merged document: %w", err)
	}
	return out, nil
}
