package main

import (
	"fmt"
	"runtime"
	"time"

	"overd/internal/metrics"
	"overd/internal/par"
)

var sprintf = fmt.Sprintf

// sizes fixes the inputs of every workload. fullSizes is the benchmark of
// record; toySizes runs every code path in about a second per workload, for
// the smoke test and for filling, in a traced run, the per-layer metrics of
// layers the named workload does not exercise.
type sizes struct {
	tables []string // paper tables of one sweep, all at scale 0.05, 2 steps

	airfoil, delta solverSize // steps include the untimed first one

	store solverSize // steps are warm connectivity solves

	parRanks, parRounds int

	serveJobs int // jobs per server lifetime (one repeat), a multiple of deckSize

	probeBatches int // batches per isolated probe; the median is reported
}

// solverSize is a paper case's gridpoint scale, node count and step count.
type solverSize struct {
	scale        float64
	nodes, steps int
}

var fullSizes = sizes{
	tables:       []string{"1", "2", "3", "4", "5", "6"},
	airfoil:      solverSize{0.25, 24, 101},
	delta:        solverSize{0.1, 8, 13},
	store:        solverSize{0.5, 52, 25},
	parRanks:     24,
	parRounds:    500,
	serveJobs:    160,
	probeBatches: 5,
}

var toySizes = sizes{
	tables:       []string{"1"},
	airfoil:      solverSize{0.05, 6, 7},
	delta:        solverSize{0.02, 4, 4},
	store:        solverSize{0.05, 16, 4},
	parRanks:     24,
	parRounds:    p90Floor,
	serveJobs:    deckSize,
	probeBatches: 3,
}

// env is what a workload needs to run once.
type env struct {
	spec  *spec
	seed  int64
	procs int // P: GOMAXPROCS of the "Np" pass
	sz    sizes
	out   string // output directory (traces, result file, server scratch)
}

// workload is one named set of inputs of the benchmark.
type workload struct {
	name string
	// onep marks the workloads that also run a GOMAXPROCS=1 pass in the
	// traced run (unit_ms_p50_1p, speedup_np).
	onep bool
	// exercises lists the name prefixes of the per-layer metrics the
	// workload's traced pass measures: the layers it does work in.
	exercises []string
	// warmUp, when set, runs one short repeat whose numbers are discarded:
	// the first run of a process grows the heap and faults its pages in,
	// which is not what later repeats — or a long-running user — see.
	warmUp func(e *env)
	// repeat runs the workload once — one set-up and the timed units that
	// follow it — untraced, with nothing attached, at the GOMAXPROCS in
	// force, and folds what it measured into p.
	repeat func(e *env, p *pass)
	// trace runs it at P with harness spans around every call into a
	// layer, for about d, and returns the traced pass, the spans, and the
	// per-layer metrics read from them and from the program's own
	// counters. base is the untraced pass at P of the same run.
	trace func(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64)
}

// interleave runs one repeat of every variant per round, for one round and
// then until d is spent (a toy run passes d = 0), with a collection before
// each repeat. Whatever drifts on the host during the run then reaches
// every variant alike, which is what makes the ratio of two variants'
// medians mean something.
func interleave(d time.Duration, variants ...func()) {
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for _, v := range variants {
			runtime.GC()
			v()
		}
	}
}

// measure runs the workload's repeats for about d, one pass per GOMAXPROCS
// setting in procs, interleaved.
func measure(e *env, w workload, d time.Duration, procs ...int) []*pass {
	passes := make([]*pass, len(procs))
	variants := make([]func(), len(procs))
	for i, n := range procs {
		p := &pass{procs: n}
		passes[i] = p
		variants[i] = func() { withProcs(n, func() { w.repeat(e, p) }) }
	}
	if w.warmUp != nil {
		withProcs(procs[0], func() { w.warmUp(e) })
	}
	interleave(d, variants...)
	return passes
}

// barrier is r.Barrier under a span: the time a rank waits for the others.
func barrier(ln *lane, r *par.Rank) {
	ln.begin("par.barrier")
	r.Barrier()
	ln.end()
}

// parCounts reads par's own windowed counters — messages sent in the flow
// and the connectivity phase, bytes and barrier entries, summed over ranks —
// as counts per unit. tags are the message tags the workload sends.
func parCounts(lm map[string]float64, reg *metrics.Registry, ranks int, units float64, tags ...par.Tag) {
	var flowMsgs, connMsgs, bytes, barriers float64
	for rank := 0; rank < ranks; rank++ {
		for _, tag := range tags {
			flowMsgs += reg.CounterValue("overd_par_msgs_sent_total", rank, int(par.PhaseFlow), int(tag))
			connMsgs += reg.CounterValue("overd_par_msgs_sent_total", rank, int(par.PhaseConnect), int(tag))
		}
		bytes += reg.SumSeries("overd_par_bytes_sent_total", rank)
		barriers += reg.SumSeries("overd_par_barrier_entries_total", rank)
	}
	lm["par.msgs_flow_per_unit"] = flowMsgs / units
	lm["par.msgs_connect_per_unit"] = connMsgs / units
	lm["par.bytes_per_unit"] = bytes / units
	lm["par.barriers_per_unit"] = barriers / units
}

// solverTags are the tags of the repository's own protocols.
var solverTags = []par.Tag{par.TagHalo, par.TagPipeline, par.TagBBox, par.TagSearchReq,
	par.TagSearchRep, par.TagForward, par.TagCollective, par.TagRepart}

func workloads() []workload {
	return []workload{
		tablesGolden(),
		airfoilComm(),
		deltawingFlow(),
		storesepConnect(),
		parPattern(),
		serveMixed(),
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
