package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is one reading of the process's cumulative resource counters.
type usage struct {
	at      time.Time
	cpu     float64 // user+system seconds (getrusage)
	mallocs uint64
	bytes   uint64
}

// readUsage stops the world briefly (runtime.ReadMemStats), so callers take
// it at the edges of a timed stretch, never inside a unit.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		at:      time.Now(),
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// meter accumulates resource use over the timed stretches of a pass.
type meter struct {
	wallS, cpuS float64
	mallocs     uint64
	bytes       uint64
	units       int
}

func (m *meter) add(from, to usage, units int) {
	m.wallS += to.at.Sub(from.at).Seconds()
	m.cpuS += to.cpu - from.cpu
	m.mallocs += to.mallocs - from.mallocs
	m.bytes += to.bytes - from.bytes
	m.units += units
}

// pass is what one untraced measurement of a workload at one GOMAXPROCS
// setting yields: per-unit wall times, set-up times, resource totals over
// the timed stretches, and the correctness tally.
type pass struct {
	procs    int
	unitsMS  []float64 // wall milliseconds of each timed unit
	setupsS  []float64 // seconds of each set-up
	m        meter
	attempts int
	failed   int
	// fingerprint identifies the pass's virtual-time outcome bit for bit;
	// it must agree between repeats and between GOMAXPROCS settings.
	fingerprint string
	// failures holds the first few failure descriptions for the report.
	failures []string
	// extra carries workload-specific samples from the same pass, by name:
	// serve_mixed's hit and cold-hit latencies.
	extra map[string][]float64
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, sprintf(format, args...))
	}
}

// tallyFrom adds another pass's correctness tally to p's.
func (p *pass) tallyFrom(q *pass) {
	p.attempts += q.attempts
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
}

func (p *pass) addExtra(name string, v float64) {
	if p.extra == nil {
		p.extra = map[string][]float64{}
	}
	p.extra[name] = append(p.extra[name], v)
}

// endToEnd derives the end-to-end metrics every workload reports.
func (p *pass) endToEnd() map[string]float64 {
	units := float64(p.m.units)
	return map[string]float64{
		"setup_s":           median(p.setupsS),
		"unit_ms_p50":       median(p.unitsMS),
		"throughput_per_s":  units / p.m.wallS,
		"cpu_s_per_unit":    p.m.cpuS / units,
		"allocs_per_unit":   float64(p.m.mallocs) / units,
		"alloc_mb_per_unit": float64(p.m.bytes) / units / 1e6,
	}
}

// withProcs runs fn at the given GOMAXPROCS and restores the old value.
func withProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}
