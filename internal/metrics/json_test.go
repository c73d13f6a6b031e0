package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"testing"
)

// refWriteJSON is the writer AppendJSON replaced: the document built as Go
// values and handed to encoding/json's indenting encoder. It stays as the
// reference AppendJSON is held to, byte for byte.
func refWriteJSON(g *Registry, w io.Writer) error {
	type jsonSeries struct {
		Labels  map[string]string `json:"labels,omitempty"`
		Value   float64           `json:"value"`
		VTS     *float64          `json:"vts,omitempty"`
		Buckets []float64         `json:"buckets,omitempty"`
		Count   *float64          `json:"count,omitempty"`
	}
	type jsonMetric struct {
		Name     string       `json:"name"`
		Type     string       `json:"type"`
		Help     string       `json:"help,omitempty"`
		Windowed bool         `json:"windowed,omitempty"`
		BucketLE []float64    `json:"bucket_le,omitempty"`
		Series   []jsonSeries `json:"series"`
	}
	type jsonDoc struct {
		Metrics []jsonMetric `json:"metrics"`
	}
	doc := jsonDoc{Metrics: []jsonMetric{}}
	for _, m := range g.snapshotAll() {
		jm := jsonMetric{
			Name:     m.name,
			Type:     m.kind.String(),
			Help:     m.opts.Help,
			Windowed: m.opts.Windowed,
			Series:   []jsonSeries{},
		}
		if m.kind == KindHistogram {
			for _, ub := range m.opts.Buckets {
				jm.BucketLE = append(jm.BucketLE, sanitize(ub))
			}
		}
		for _, s := range m.snapshot() {
			js := jsonSeries{Labels: map[string]string{}}
			if !m.opts.Global {
				js.Labels["rank"] = strconv.Itoa(s.rank)
			}
			for i := range m.opts.Labels {
				js.Labels[m.labelName(i)] = m.labelValue(i, s.labs[i])
			}
			if len(js.Labels) == 0 {
				js.Labels = nil
			}
			switch m.kind {
			case KindCounter:
				js.Value = sanitize(s.vals[0])
			case KindGauge:
				js.Value = sanitize(s.vals[0])
				ts := sanitize(s.vals[1])
				js.VTS = &ts
			case KindHistogram:
				nb := len(m.opts.Buckets)
				cum := 0.0
				for i := 0; i < nb; i++ {
					cum += s.vals[i]
					js.Buckets = append(js.Buckets, sanitize(cum))
				}
				count := sanitize(s.vals[nb])
				js.Count = &count
				js.Value = sanitize(s.vals[nb+1])
			}
			jm.Series = append(jm.Series, js)
		}
		doc.Metrics = append(doc.Metrics, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// refJSON is refWriteJSON's document.
func refJSON(t *testing.T, g *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := refWriteJSON(g, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzRegistry builds a registry exercising every branch of the JSON
// export from arbitrary strings and floats: all three kinds, named and
// decimal labels (colliding with each other or with "rank" when the names
// say so), global and windowed metrics, series out of key order, a series
// registered after its window froze, and bucket bounds of any value.
func fuzzRegistry(name, help, lab0, lab1, val0, val1 string, v, w, b0, b1 float64, flags uint8) *Registry {
	g := New()
	g.Reset(3)
	names := func(i int) string {
		if i == 0 {
			return val0
		}
		return val1
	}
	labels := []Label{{Name: lab0, Namer: names}, {Name: lab1}}
	global, windowed := flags&1 != 0, flags&2 != 0
	c := g.Counter(name, Opts{Help: help, Global: global, Windowed: windowed, Labels: labels})
	ga := g.Gauge(name+"_g", Opts{Help: help, Labels: labels[1:]})
	h := g.Histogram(name+"_h", Opts{Windowed: windowed, Buckets: []float64{b0, b1}, Labels: labels[:1]})
	g.Gauge(name+"_empty", Opts{})
	g.Counter("", Opts{Global: true}).Add(0, w)
	if windowed {
		g.MarkWindowStart(0)
	}
	c.Add2(0, 1, 7, v)
	c.Add2(0, 0, -3, w)
	c.Add2(0, 1, 2, v*w)
	ga.Set1(2, 300, v, w)
	ga.Set1(1, -1, w, v)
	h.Observe1(0, 1, v)
	h.Observe1(0, 0, w)
	h.Observe1(0, 1, b0)
	if windowed {
		g.MarkWindowEnd(0)
		c.Add2(0, 0, -9, 1) // after the window: a series with no frozen values
		h.Observe1(0, 0, v)
	}
	return g
}

func TestAppendJSONEqualsReference(t *testing.T) {
	for flags := uint8(0); flags < 4; flags++ {
		for _, lab := range [][2]string{{"phase", "tag"}, {"rank", "tag"}, {"tag", "tag"}, {"", "<&>"}} {
			g := fuzzRegistry("overd_x", "help <b> & \u2028", lab[0], lab[1], "flow", "\xff",
				0.1, math.Inf(-1), 1e-7, math.NaN(), flags)
			want := refJSON(t, g)
			if got := g.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("flags %d labels %q: AppendJSON differs from the reference:\n got %s\nwant %s", flags, lab, got[6:], want)
			}
			var buf bytes.Buffer
			if err := g.WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("flags %d labels %q: WriteJSON differs from the reference (err %v)", flags, lab, err)
			}
		}
	}
	if got, want := New().AppendJSON(nil), refJSON(t, New()); !bytes.Equal(got, want) {
		t.Errorf("empty registry: got %q, want %q", got, want)
	}
}

// A document appended into a buffer that can hold it costs no allocation.
func TestAppendJSONZeroAlloc(t *testing.T) {
	g := fuzzRegistry("overd_x", "help", "phase", "tag", "flow", "motion", 0.25, 1e3, 1, 10, 2)
	doc := g.AppendJSON(nil)
	buf := make([]byte, 0, len(doc))
	if allocs := testing.AllocsPerRun(20, func() {
		buf = g.AppendJSON(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendJSON into a sufficient buffer: %v allocations, want 0", allocs)
	}
}

// FuzzWriteJSON holds AppendJSON to the reference writer on registries
// built from arbitrary names, help text, labels and values.
func FuzzWriteJSON(f *testing.F) {
	f.Add("overd_msgs_total", "messages", "phase", "tag", "flow", "halo", 3.0, 0.5, 1e-3, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, name, help, lab0, lab1, val0, val1 string, v, w, b0, b1 float64, flags uint8) {
		g := fuzzRegistry(name, help, lab0, lab1, val0, val1, v, w, b0, b1, flags)
		want := refJSON(t, g)
		got := g.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from the reference:\n got %q\nwant %q", got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("AppendJSON wrote invalid JSON: %q", got)
		}
	})
}

// FuzzPrometheusRoundTrip reads WritePrometheus's output back with
// ParsePrometheus: the same samples — names, labels and values, non-finite
// ones as 0 — for any help text, label value and float.
func FuzzPrometheusRoundTrip(f *testing.F) {
	f.Add("overd_msgs_total", "messages", "phase", "flow", "halo", 3.0, 0.5, 2.0)
	f.Fuzz(func(t *testing.T, name, help, lab, val0, val1 string, v, w, obs float64) {
		if !validMetricName(name) {
			name = "fuzz"
		}
		if !validLabelName(lab) || lab == "rank" {
			lab = "tag"
		}
		if val1 == val0 {
			val1 += "'"
		}
		g := New()
		g.Reset(2)
		label := Label{Name: lab, Namer: func(i int) string { return []string{val0, val1}[i] }}
		c := g.Counter(name, Opts{Help: help, Labels: []Label{label}})
		c.Add1(1, 1, math.Abs(v))
		c.Add1(1, 0, math.Abs(w))
		g.Gauge(name+"_g", Opts{Help: help, Global: true}).Set(0, v, w)
		h := g.Histogram(name+"_h", Opts{Help: help, Buckets: []float64{1e-3, 1}})
		h.Observe(0, obs)
		h.Observe(0, v)

		var buf bytes.Buffer
		if err := g.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatalf("parsing own output: %v\n%q", err, buf.String())
		}
		type sample struct {
			name, labels string
			value        float64
		}
		var got []sample
		for _, fam := range fams {
			for _, s := range fam.Samples {
				got = append(got, sample{s.Name, fmtLabels(s.Labels), s.Value})
			}
		}
		bucket := func(ub float64) float64 {
			n := 0.0
			for _, o := range []float64{obs, v} {
				if o <= ub {
					n++
				}
			}
			return n
		}
		sum := obs
		sum += v
		rank1 := func(val string) string { return fmtLabels(map[string]string{"rank": "1", lab: val}) }
		hl := func(le string) string { return fmtLabels(map[string]string{"rank": "0", "le": le}) }
		want := []sample{
			{name, rank1(val0), sanitize(math.Abs(w))},
			{name, rank1(val1), sanitize(math.Abs(v))},
			{name + "_g", "", sanitize(v)},
			{name + "_h_bucket", hl("0.001"), bucket(1e-3)},
			{name + "_h_bucket", hl("1"), bucket(1)},
			{name + "_h_bucket", hl("+Inf"), 2},
			{name + "_h_sum", fmtLabels(map[string]string{"rank": "0"}), sanitize(sum)},
			{name + "_h_count", fmtLabels(map[string]string{"rank": "0"}), 2},
		}
		if len(got) != len(want) {
			t.Fatalf("%d samples read back, want %d:\n%q", len(got), len(want), buf.String())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("sample %d: read back %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// fmtLabels renders a label set in key order, for comparison.
func fmtLabels(l map[string]string) string {
	b, _ := json.Marshal(l) // encoding/json sorts map keys
	if len(l) == 0 {
		return ""
	}
	return string(b)
}

// A live scrape may export while ranks write and register series: every
// document is valid JSON, and the last one, after the writers stop, equals
// the reference (run under -race in CI).
func TestAppendJSONWhileWriting(t *testing.T) {
	g := New()
	g.Reset(4)
	c := g.Counter("c_total", Opts{Labels: []Label{{Name: "tag", Namer: func(i int) string { return strconv.Itoa(i) }}}})
	h := g.Histogram("h_seconds", Opts{Windowed: true})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g.MarkWindowStart(r)
			for i := 0; i < 300; i++ {
				c.Add1(r, (i*7919)%97, 1)
				h.Observe(r, float64(i)*1e-4)
			}
			g.MarkWindowEnd(r)
		}(r)
	}
	for i := 0; i < 20; i++ {
		if doc := g.AppendJSON(nil); !json.Valid(doc) {
			t.Fatalf("export during writes is not valid JSON:\n%s", doc)
		}
	}
	wg.Wait()
	if got, want := g.AppendJSON(nil), refJSON(t, g); !bytes.Equal(got, want) {
		t.Errorf("export after the writes differs from the reference")
	}
}
