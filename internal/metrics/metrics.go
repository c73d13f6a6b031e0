// Package metrics is a deterministic, virtual-time metrics registry for the
// simulated overset runtime.
//
// Metrics are typed (counter, gauge, histogram) and keyed by rank plus up to
// two small integer labels (phase, tag, grid, ...). Values live in per-metric
// per-rank shards so each simulated rank writes without contending with its
// peers; a per-shard mutex only matters when a live HTTP scrape (-serve)
// reads while ranks write. Everything is observation-only: nothing here reads
// or advances virtual clocks, so runs are bit-identical with the registry
// attached or absent. When no registry is attached the runtime pays a single
// nil check per would-be observation (the same contract as internal/trace).
//
// Windowed metrics reconcile exactly with trace.Summarize over the
// measurement window: MarkWindowStart zeroes their values (so in-window
// float additions happen in the same order the trace analyzer accumulates
// clipped events) and MarkWindowEnd freezes a snapshot, hiding any
// post-window collective activity from export.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates metric types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Label describes one small-integer label dimension. Namer renders the raw
// int for export; nil means decimal.
type Label struct {
	Name  string
	Namer func(int) string
}

// Opts configures a metric at registration time.
type Opts struct {
	// Help is the one-line description exported as # HELP.
	Help string
	// Windowed metrics participate in MarkWindowStart/MarkWindowEnd:
	// values reset to zero at window start and freeze at window end, so
	// they cover exactly the measured-step window (like trace.Summary).
	Windowed bool
	// Global metrics have a single shard (no rank label); only rank 0
	// should write them.
	Global bool
	// Buckets are the histogram upper bounds (ascending). Ignored for
	// counters and gauges. Defaults to DefTimeBuckets.
	Buckets []float64
	// Labels are the extra label dimensions after rank (at most 2).
	Labels []Label
}

// DefTimeBuckets is the default histogram layout, tuned for virtual-second
// wait times on the modeled machines (microseconds to tens of seconds).
var DefTimeBuckets = []float64{
	1e-6, 2.5e-6, 1e-5, 2.5e-5, 1e-4, 2.5e-4,
	1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// shard holds the series of one metric for one rank. idx maps the packed
// label key to a series index; vals is series-major with m.width slots per
// series. fin is the frozen copy taken at MarkWindowEnd for windowed
// metrics.
type shard struct {
	mu     sync.Mutex
	idx    map[uint64]int
	keys   []uint64
	labs   [][2]int32
	vals   []float64
	fin    []float64
	hasFin bool
}

type metric struct {
	name   string
	kind   Kind
	opts   Opts
	width  int // value slots per series
	shards []shard
}

// Registry is a set of metrics shared by one run. The zero value is not
// usable; call New. A nil *Registry is a valid "disabled" registry for the
// read-side helpers, but instrumented packages must nil-check before
// registering or writing.
type Registry struct {
	mu     sync.Mutex
	nRanks int
	byName map[string]*metric
	order  []*metric
	// sorted is order sorted by name, rebuilt (never changed in place) by
	// the first export after a registration.
	sorted []*metric
}

// New returns an empty registry. Attach it to a run (which calls Reset with
// the world size) before ranks write.
func New() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Reset reallocates every registered metric's shards for a world of n ranks
// and clears all values. The runtime calls it when a world attaches the
// registry, including on crash-restart attempts, so exported values always
// describe the final attempt (matching trace semantics).
func (g *Registry) Reset(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nRanks = n
	for _, m := range g.order {
		m.shards = make([]shard, m.shardCount(n))
	}
}

// NRanks reports the world size from the last Reset.
func (g *Registry) NRanks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nRanks
}

func (m *metric) shardCount(n int) int {
	if m.opts.Global {
		return 1
	}
	return n
}

func widthFor(kind Kind, o *Opts) int {
	switch kind {
	case KindCounter:
		return 1
	case KindGauge:
		return 2 // value, virtual-time timestamp
	default:
		if len(o.Buckets) == 0 {
			o.Buckets = DefTimeBuckets
		}
		// Per-bucket (non-cumulative) counts, then total count, then sum.
		return len(o.Buckets) + 2
	}
}

func (g *Registry) metric(name string, kind Kind, o Opts) *metric {
	if len(o.Labels) > 2 {
		panic("metrics: at most 2 labels after rank are supported")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, kind: kind, opts: o}
	m.width = widthFor(kind, &m.opts)
	m.shards = make([]shard, m.shardCount(g.nRanks))
	g.byName[name] = m
	g.order = append(g.order, m)
	return m
}

// Counter registers (idempotently) and returns a counter handle.
func (g *Registry) Counter(name string, o Opts) Counter {
	if g == nil {
		return Counter{}
	}
	return Counter{g.metric(name, KindCounter, o)}
}

// Gauge registers (idempotently) and returns a gauge handle.
func (g *Registry) Gauge(name string, o Opts) Gauge {
	if g == nil {
		return Gauge{}
	}
	return Gauge{g.metric(name, KindGauge, o)}
}

// Histogram registers (idempotently) and returns a histogram handle.
func (g *Registry) Histogram(name string, o Opts) Histogram {
	if g == nil {
		return Histogram{}
	}
	return Histogram{g.metric(name, KindHistogram, o)}
}

func packKey(nlab int, l0, l1 int32) uint64 {
	switch nlab {
	case 0:
		return 0
	case 1:
		return uint64(uint32(l0))
	default:
		return uint64(uint32(l0))<<32 | uint64(uint32(l1))
	}
}

// slots locates (creating if needed) the value slots for one series and
// returns them with the shard lock held; the caller must call sh.mu.Unlock.
func (m *metric) slots(rank int, l0, l1 int32) (*shard, []float64) {
	if m.opts.Global {
		rank = 0
	}
	sh := &m.shards[rank]
	key := packKey(len(m.opts.Labels), l0, l1)
	sh.mu.Lock()
	i, ok := sh.idx[key]
	if !ok {
		if sh.idx == nil {
			sh.idx = make(map[uint64]int)
		}
		i = len(sh.keys)
		sh.idx[key] = i
		sh.keys = append(sh.keys, key)
		sh.labs = append(sh.labs, [2]int32{l0, l1})
		sh.vals = append(sh.vals, make([]float64, m.width)...)
	}
	return sh, sh.vals[i*m.width : (i+1)*m.width]
}

func (m *metric) checkArity(n int) {
	if len(m.opts.Labels) != n {
		panic(fmt.Sprintf("metrics: %s has %d labels, written with %d", m.name, len(m.opts.Labels), n))
	}
}

// Counter is a monotonically increasing value. The zero Counter is a no-op.
type Counter struct{ m *metric }

func (c Counter) Add(rank int, v float64) {
	if c.m == nil {
		return
	}
	c.m.checkArity(0)
	sh, s := c.m.slots(rank, 0, 0)
	s[0] += v
	sh.mu.Unlock()
}

func (c Counter) Add1(rank, l0 int, v float64) {
	if c.m == nil {
		return
	}
	c.m.checkArity(1)
	sh, s := c.m.slots(rank, int32(l0), 0)
	s[0] += v
	sh.mu.Unlock()
}

func (c Counter) Add2(rank, l0, l1 int, v float64) {
	if c.m == nil {
		return
	}
	c.m.checkArity(2)
	sh, s := c.m.slots(rank, int32(l0), int32(l1))
	s[0] += v
	sh.mu.Unlock()
}

// Gauge is a point-in-time value stamped with the writer's virtual clock.
// The zero Gauge is a no-op.
type Gauge struct{ m *metric }

func (gg Gauge) Set(rank int, v, vclock float64) {
	if gg.m == nil {
		return
	}
	gg.m.checkArity(0)
	sh, s := gg.m.slots(rank, 0, 0)
	s[0], s[1] = v, vclock
	sh.mu.Unlock()
}

func (gg Gauge) Set1(rank, l0 int, v, vclock float64) {
	if gg.m == nil {
		return
	}
	gg.m.checkArity(1)
	sh, s := gg.m.slots(rank, int32(l0), 0)
	s[0], s[1] = v, vclock
	sh.mu.Unlock()
}

func (gg Gauge) Set2(rank, l0, l1 int, v, vclock float64) {
	if gg.m == nil {
		return
	}
	gg.m.checkArity(2)
	sh, s := gg.m.slots(rank, int32(l0), int32(l1))
	s[0], s[1] = v, vclock
	sh.mu.Unlock()
}

// Histogram accumulates observations into fixed buckets plus a count and an
// exact sum. The zero Histogram is a no-op.
type Histogram struct{ m *metric }

func (h Histogram) observe(rank int, l0, l1 int32, v float64) {
	m := h.m
	sh, s := m.slots(rank, l0, l1)
	b := m.opts.Buckets
	for i, ub := range b {
		if v <= ub {
			s[i]++
			break
		}
	}
	s[len(b)]++      // total count (includes +Inf overflow)
	s[len(b)+1] += v // sum, accumulated in observation order
	sh.mu.Unlock()
}

func (h Histogram) Observe(rank int, v float64) {
	if h.m == nil {
		return
	}
	h.m.checkArity(0)
	h.observe(rank, 0, 0, v)
}

func (h Histogram) Observe1(rank, l0 int, v float64) {
	if h.m == nil {
		return
	}
	h.m.checkArity(1)
	h.observe(rank, int32(l0), 0, v)
}

func (h Histogram) Observe2(rank, l0, l1 int, v float64) {
	if h.m == nil {
		return
	}
	h.m.checkArity(2)
	h.observe(rank, int32(l0), int32(l1), v)
}

// MarkWindowStart zeroes every windowed metric's values for rank (keeping
// registered series), so subsequent additions cover exactly the measurement
// window in the same accumulation order trace.Summarize uses. Global
// windowed metrics are handled by rank 0's call.
func (g *Registry) MarkWindowStart(rank int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.order {
		if !m.opts.Windowed {
			continue
		}
		idx := rank
		if m.opts.Global {
			if rank != 0 {
				continue
			}
			idx = 0
		}
		if idx >= len(m.shards) {
			continue
		}
		sh := &m.shards[idx]
		sh.mu.Lock()
		for i := range sh.vals {
			sh.vals[i] = 0
		}
		sh.fin = sh.fin[:0]
		sh.hasFin = false
		sh.mu.Unlock()
	}
}

// MarkWindowEnd freezes every windowed metric for rank: export and the read
// helpers use the snapshot taken here, hiding post-window activity
// (trailing barriers, post-loop collectives).
func (g *Registry) MarkWindowEnd(rank int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.order {
		if !m.opts.Windowed {
			continue
		}
		idx := rank
		if m.opts.Global {
			if rank != 0 {
				continue
			}
			idx = 0
		}
		if idx >= len(m.shards) {
			continue
		}
		sh := &m.shards[idx]
		sh.mu.Lock()
		sh.fin = append(sh.fin[:0], sh.vals...)
		sh.hasFin = true
		sh.mu.Unlock()
	}
}

// series is one exported series: resolved labels plus a copy of its value
// slots (window-adjusted for windowed metrics).
type series struct {
	rank int
	labs [2]int32
	vals []float64
}

// snapshot copies one metric's series under the shard locks, in
// deterministic order: rank ascending, then packed label key ascending.
func (m *metric) snapshot() []series {
	var out []series
	for r := range m.shards {
		sh := &m.shards[r]
		sh.mu.Lock()
		src := sh.vals
		if m.opts.Windowed && sh.hasFin {
			src = sh.fin
		}
		ord := make([]int, len(sh.keys))
		for i := range ord {
			ord[i] = i
		}
		keys := sh.keys
		sort.Slice(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
		for _, i := range ord {
			vals := make([]float64, m.width)
			if (i+1)*m.width <= len(src) {
				copy(vals, src[i*m.width:(i+1)*m.width])
			}
			out = append(out, series{rank: r, labs: sh.labs[i], vals: vals})
		}
		sh.mu.Unlock()
	}
	return out
}

// snapshotAll returns all metrics sorted by name. The slice is shared by
// every export until the next registration; callers must not modify it.
func (g *Registry) snapshotAll() []*metric {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sorted) != len(g.order) {
		g.sorted = slices.Clone(g.order)
		slices.SortFunc(g.sorted, func(a, b *metric) int { return strings.Compare(a.name, b.name) })
	}
	return g.sorted
}

func (m *metric) labelName(i int) string {
	return m.opts.Labels[i].Name
}

func (m *metric) labelValue(i int, raw int32) string {
	if n := m.opts.Labels[i].Namer; n != nil {
		return n(int(raw))
	}
	return strconv.Itoa(int(raw))
}

// read returns a window-adjusted copy of one series' value slots, or nil if
// the metric or series does not exist.
func (g *Registry) read(name string, rank int, labels []int) ([]float64, *metric) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	m := g.byName[name]
	g.mu.Unlock()
	if m == nil || len(labels) != len(m.opts.Labels) {
		return nil, nil
	}
	if m.opts.Global {
		rank = 0
	}
	if rank < 0 || rank >= len(m.shards) {
		return nil, nil
	}
	var l0, l1 int32
	if len(labels) > 0 {
		l0 = int32(labels[0])
	}
	if len(labels) > 1 {
		l1 = int32(labels[1])
	}
	key := packKey(len(labels), l0, l1)
	sh := &m.shards[rank]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.idx[key]
	if !ok {
		return nil, nil
	}
	src := sh.vals
	if m.opts.Windowed && sh.hasFin {
		src = sh.fin
	}
	out := make([]float64, m.width)
	if (i+1)*m.width <= len(src) {
		copy(out, src[i*m.width:(i+1)*m.width])
	}
	return out, m
}

// CounterValue returns a counter series' value (0 if absent).
func (g *Registry) CounterValue(name string, rank int, labels ...int) float64 {
	s, _ := g.read(name, rank, labels)
	if s == nil {
		return 0
	}
	return s[0]
}

// GaugeValue returns a gauge series' value and virtual-time stamp.
func (g *Registry) GaugeValue(name string, rank int, labels ...int) (v, vclock float64) {
	s, _ := g.read(name, rank, labels)
	if s == nil {
		return 0, 0
	}
	return s[0], s[1]
}

// HistogramStats returns a histogram series' observation count and sum.
func (g *Registry) HistogramStats(name string, rank int, labels ...int) (count, sum float64) {
	s, m := g.read(name, rank, labels)
	if s == nil {
		return 0, 0
	}
	nb := len(m.opts.Buckets)
	return s[nb], s[nb+1]
}

// SumSeries sums slot 0 (counter value / gauge value) across every series of
// the metric for one rank — e.g. total bytes over all (phase, tag) pairs.
func (g *Registry) SumSeries(name string, rank int) float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	m := g.byName[name]
	g.mu.Unlock()
	if m == nil {
		return 0
	}
	if m.opts.Global {
		rank = 0
	}
	if rank < 0 || rank >= len(m.shards) {
		return 0
	}
	sh := &m.shards[rank]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	src := sh.vals
	if m.opts.Windowed && sh.hasFin {
		src = sh.fin
	}
	var tot float64
	for i := 0; i*m.width < len(src); i++ {
		tot += src[i*m.width]
	}
	return tot
}

// sanitize maps non-finite floats to 0 for export, mirroring the root
// package's EmitRowsJSON convention.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
