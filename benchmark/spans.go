package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The harness-side span layer of the traced run. Spans are recorded from
// outside the program, around calls into its public functions; they are
// kept in memory and written when the run ends. A nil *tracer and a nil
// *lane record nothing, so the same workload code runs traced and untraced.

// spanRec is one closed interval on a lane.
type spanRec struct {
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32 // index of the enclosing span on the same lane, -1 for none
	unit       int32 // id of the timed unit the span belongs to, -1 outside units
}

// lane is the span buffer of one rank or one client (one Chrome tid). It is
// written by a single goroutine.
type lane struct {
	epoch time.Time
	tid   int
	label string
	spans []spanRec
	open  []int32
	unit  int32
}

type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer(n int, label func(i int) string) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([]*lane, n)}
	for i := range t.lanes {
		t.lanes[i] = &lane{epoch: t.epoch, tid: i, label: label(i), unit: -1,
			spans: make([]spanRec, 0, 4096)}
	}
	return t
}

func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// setUnit tags the spans that follow with a timed-unit id (-1: outside).
func (l *lane) setUnit(u int) {
	if l != nil {
		l.unit = int32(u)
	}
}

// begin opens a span nested in the innermost open span of the lane.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, int32(len(l.spans)))
	l.spans = append(l.spans, spanRec{name: name, parent: parent, unit: l.unit,
		start: int64(time.Since(l.epoch))})
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.open)
	l.spans[l.open[n-1]].end = int64(time.Since(l.epoch))
	l.open = l.open[:n-1]
}

// addAt records a span measured elsewhere (the server's own stage spans),
// with no parent on this lane.
func (l *lane) addAt(name string, start, end time.Time, unit int) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, spanRec{name: name, parent: -1, unit: int32(unit),
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch))})
}

// selfNS returns, per span name, the summed self time — duration minus the
// part covered by child spans — of the lane's spans inside timed units.
func (l *lane) selfNS(into map[string]int64) {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		if s.unit >= 0 {
			into[s.name] += s.end - s.start - child[i]
		}
	}
}

// selfMSPerUnit sums self time per span name over every lane and divides by
// the unit count: "wall ms per unit, summed over ranks".
func (t *tracer) selfMSPerUnit(units int) map[string]float64 {
	ns := map[string]int64{}
	for _, l := range t.lanes {
		l.selfNS(ns)
	}
	out := make(map[string]float64, len(ns))
	for name, v := range ns {
		out[name] = float64(v) / 1e6 / float64(units)
	}
	return out
}

// meanMS returns the mean duration, in milliseconds, of the spans with the
// given name on any lane, inside timed units or not.
func (t *tracer) meanMS(name string) float64 {
	var total int64
	n := 0
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.name == name {
				total += s.end - s.start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / 1e6 / float64(n)
}

// coverage returns the smallest share, over lanes, of timed-unit wall time
// that the spans nested inside the unit spans account for. unitName is the
// name of the per-unit parent span.
func (t *tracer) coverage(unitName string) float64 {
	min := 1.0
	for _, l := range t.lanes {
		ns := map[string]int64{}
		l.selfNS(ns)
		var total int64
		for _, s := range l.spans {
			if s.name == unitName && s.unit >= 0 {
				total += s.end - s.start
			}
		}
		if total == 0 {
			continue
		}
		if c := 1 - float64(ns[unitName])/float64(total); c < min {
			min = c
		}
	}
	return min
}

// chromeEvent is one trace-event record (the subset Perfetto and
// chrome://tracing need for complete events and thread names).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one tid per
// lane, each span a complete ("X") event carrying its unit id and the name
// of its parent span.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			w.WriteByte(',')
		}
		first = false
		return enc.Encode(e)
	}
	for _, l := range t.lanes {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", TID: l.tid,
			Args: map[string]any{"name": l.label}}); err != nil {
			return err
		}
		for _, s := range l.spans {
			args := map[string]any{"unit": s.unit}
			if s.parent >= 0 {
				args["parent"] = l.spans[s.parent].name
			}
			if err := emit(chromeEvent{Name: s.name, Ph: "X", TID: l.tid,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: args}); err != nil {
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
