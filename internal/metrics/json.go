package metrics

import (
	"cmp"
	"io"
	"slices"
	"strconv"

	"overd/internal/jsonenc"
)

// WriteJSON writes every metric as a JSON document: the bytes of
// AppendJSON.
func (g *Registry) WriteJSON(w io.Writer) error {
	_, err := w.Write(g.AppendJSON(nil))
	return err
}

// AppendJSON appends the metrics document to dst and returns the extended
// buffer: {"metrics": [...]} with each metric's name, type, help, windowed
// flag and histogram bucket bounds, and per series its labels (rank and
// named labels, keys in order), value (a histogram's sum), gauge stamp
// "vts", and histogram cumulative "buckets" and "count" — byte for byte
// what encoding/json's encoder, indenting by two spaces, makes of those
// fields with empty ones omitted. Non-finite floats are sanitized to 0,
// matching the EmitRowsJSON convention, so the output is always valid JSON.
// Ordering mirrors WritePrometheus. Into a dst that can hold the document it
// allocates nothing once the registry's name order is cached.
func (g *Registry) AppendJSON(dst []byte) []byte {
	b := append(dst, "{\n  \"metrics\": ["...)
	ms := g.snapshotAll()
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = jsonenc.AppendString(b, "", m.name)
		b = append(b, ",\n      \"type\": "...)
		b = jsonenc.AppendString(b, "", m.kind.String())
		if m.opts.Help != "" {
			b = append(b, ",\n      \"help\": "...)
			b = jsonenc.AppendString(b, "", m.opts.Help)
		}
		if m.opts.Windowed {
			b = append(b, ",\n      \"windowed\": true"...)
		}
		if m.kind == KindHistogram && len(m.opts.Buckets) > 0 {
			b = append(b, ",\n      \"bucket_le\": ["...)
			for j, ub := range m.opts.Buckets {
				b = appendItem(b, j, "\n        ", sanitize(ub))
			}
			b = append(b, "\n      ]"...)
		}
		b = append(b, ",\n      \"series\": ["...)
		var n int
		b, n = m.appendSeries(b)
		if n > 0 {
			b = append(b, "\n      "...)
		}
		b = append(b, "]\n    }"...)
	}
	if len(ms) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// appendItem appends the j-th float of an indented array.
func appendItem(b []byte, j int, indent string, v float64) []byte {
	if j > 0 {
		b = append(b, ',')
	}
	return jsonenc.AppendFloat(append(b, indent...), v)
}

// appendSeries appends m's series objects in snapshot order — rank, then
// label key — and returns how many. A series' key and labels never change
// once it exists, so only its values are read under the shard lock, and no
// label Namer runs while the lock is held.
func (m *metric) appendSeries(b []byte) ([]byte, int) {
	n := 0
	var ordBuf [64]int32
	var valBuf [32]float64
	for r := range m.shards {
		sh := &m.shards[r]
		sh.mu.Lock()
		keys, labs := sh.keys, sh.labs
		sh.mu.Unlock()
		ord := ordBuf[:0]
		if !slices.IsSorted(keys) {
			for i := range keys {
				ord = append(ord, int32(i))
			}
			slices.SortFunc(ord, func(x, y int32) int { return cmp.Compare(keys[x], keys[y]) })
		}
		for k := range keys {
			i := k
			if len(ord) > 0 {
				i = int(ord[k])
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = m.appendOne(append(b, "\n        {"...), r, labs[i], m.values(sh, i, valBuf[:0]))
			b = append(b, "\n        }"...)
			n++
		}
	}
	return b, n
}

// values appends series i's value slots in sh to dst — the frozen ones of a
// windowed metric once its window closed — or returns nil for a series the
// window froze before it existed.
func (m *metric) values(sh *shard, i int, dst []float64) []float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	src := sh.vals
	if m.opts.Windowed && sh.hasFin {
		src = sh.fin
	}
	if (i+1)*m.width > len(src) {
		return nil
	}
	return append(dst, src[i*m.width:(i+1)*m.width]...)
}

// jsonLabel is one member of a series' labels object: the string str, or
// the decimal num when isNum.
type jsonLabel struct {
	key, str string
	num      int64
	isNum    bool
}

// appendOne appends the members of one series object; vals nil reads as
// zeros (a series registered after its window froze).
func (m *metric) appendOne(b []byte, rank int, labs [2]int32, vals []float64) []byte {
	at := func(k int) float64 {
		if vals == nil {
			return 0
		}
		return vals[k]
	}
	// The labels as a map holds them: a later key replaces an earlier one.
	var ls [3]jsonLabel
	nl := 0
	put := func(l jsonLabel) {
		for j := 0; j < nl; j++ {
			if ls[j].key == l.key {
				ls[j] = l
				return
			}
		}
		ls[nl] = l
		nl++
	}
	if !m.opts.Global {
		put(jsonLabel{key: "rank", num: int64(rank), isNum: true})
	}
	for i, l := range m.opts.Labels {
		if l.Namer != nil {
			put(jsonLabel{key: l.Name, str: l.Namer(int(labs[i]))})
		} else {
			put(jsonLabel{key: l.Name, num: int64(labs[i]), isNum: true})
		}
	}
	for j := 1; j < nl; j++ {
		for k := j; k > 0 && ls[k].key < ls[k-1].key; k-- {
			ls[k], ls[k-1] = ls[k-1], ls[k]
		}
	}
	if nl > 0 {
		b = append(b, "\n          \"labels\": {"...)
		for j, l := range ls[:nl] {
			if j > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendString(append(b, "\n            "...), "", l.key)
			b = append(b, ": "...)
			if l.isNum {
				b = append(strconv.AppendInt(append(b, '"'), l.num, 10), '"')
			} else {
				b = jsonenc.AppendString(b, "", l.str)
			}
		}
		b = append(b, "\n          },"...)
	}
	b = append(b, "\n          \"value\": "...)
	switch m.kind {
	case KindCounter:
		b = jsonenc.AppendFloat(b, sanitize(at(0)))
	case KindGauge:
		b = jsonenc.AppendFloat(b, sanitize(at(0)))
		b = jsonenc.AppendFloat(append(b, ",\n          \"vts\": "...), sanitize(at(1)))
	case KindHistogram:
		nb := len(m.opts.Buckets)
		b = jsonenc.AppendFloat(b, sanitize(at(nb+1)))
		if nb > 0 {
			b = append(b, ",\n          \"buckets\": ["...)
			cum := 0.0
			for j := 0; j < nb; j++ {
				cum += at(j)
				b = appendItem(b, j, "\n            ", sanitize(cum))
			}
			b = append(b, "\n          ]"...)
		}
		b = jsonenc.AppendFloat(append(b, ",\n          \"count\": "...), sanitize(at(nb)))
	}
	return b
}
