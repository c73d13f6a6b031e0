package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"overd/internal/machine"
	"overd/internal/metrics"
	"overd/internal/par"
)

// Message shapes of one par_pattern round, in 8-byte words. They copy the
// traffic of the solver: face slabs, pipelined ADI line segments, and the
// donor-search request/reply pair.
const (
	haloWords    = 512 // 4 KiB face slab, two per direction per round
	haloPerWay   = 2
	lineWords    = 32 // 256-byte pipeline segment
	linesPerUnit = 64
	reqWords     = 7 // 56-byte search request
	repWords     = 8 // 64-byte search reply
	gatherBytes  = 48
)

// maxTracedRounds caps the rounds recorded into one trace: a traced round
// leaves nine spans on each of 24 lanes.
const maxTracedRounds = 500

const (
	tagHaloUp par.Tag = par.TagUser + iota
	tagHaloDown
	tagLine
	tagReq
	tagRep
)

// parEnvelope is the pooled message envelope; it owns its buffer.
type parEnvelope struct{ buf []uint64 }

// parPayloads holds every rank's seeded source buffers. The program under
// test receives only these generated inputs, never the seed.
type parPayloads struct {
	halo, line, req, rep [][]uint64 // indexed by sending rank
}

func genPayloads(seed int64, ranks int) parPayloads {
	rng := rand.New(rand.NewSource(seed))
	fill := func(words int) [][]uint64 {
		out := make([][]uint64, ranks)
		for r := range out {
			out[r] = make([]uint64, words)
			for i := range out[r] {
				out[r][i] = rng.Uint64()
			}
		}
		return out
	}
	return parPayloads{halo: fill(haloWords), line: fill(lineWords), req: fill(reqWords), rep: fill(repWords)}
}

func wordSum(buf []uint64) (s uint64) {
	for _, w := range buf {
		s += w
	}
	return s
}

// roundChecksum is the sum, over every message of one round, of the words
// its receiver must have seen — computed serially from the payloads alone.
func (pl parPayloads) roundChecksum() (s uint64) {
	n := len(pl.halo)
	for r := 0; r < n; r++ {
		s += 2 * haloPerWay * wordSum(pl.halo[r]) // to both neighbours
		if r < n-1 {
			s += linesPerUnit * wordSum(pl.line[r]) // down the chain
		}
		if r > 0 {
			s += wordSum(pl.req[r]) // fan-in to rank 0
		}
	}
	s += uint64(n-1) * wordSum(pl.rep[0]) // rank 0's replies
	return s
}

// parRun is what one world lifetime of the pattern yields.
type parRun struct {
	setupS   float64 // NewWorld + arena + goroutine spawn → first barrier
	unitsMS  []float64
	from, to usage
	checksum uint64
	badColl  int // collectives whose result was wrong
	clock    float64
}

// runPattern runs rounds of the pattern on a fresh world with zero Compute,
// so every microsecond of host time is par's.
func runPattern(pl parPayloads, rounds int, tr *tracer, unit0 int, reg *metrics.Registry) parRun {
	var out parRun
	n := len(pl.halo)
	t0 := time.Now()
	world := par.NewWorld(n, machine.SP2())
	world.SetMetrics(reg)
	var arena par.Arena[parEnvelope]
	arena.Init(n)
	sums := make([]uint64, n)
	bad := make([]int, n)
	var last time.Time
	world.Run(func(r *par.Rank) {
		ln := tr.lane(r.ID)
		id := r.ID
		up, down := (id+1)%n, (id+n-1)%n
		var sum uint64
		send := func(to int, tag par.Tag, src []uint64) {
			env := arena.Get(id)
			env.buf = append(env.buf[:0], src...)
			r.Send(to, tag, env, 8*len(src))
		}
		recv := func(from int, tag par.Tag) int {
			m := r.Recv(from, tag)
			env := m.Data.(*parEnvelope)
			sum += wordSum(env.buf)
			arena.Put(id, env)
			return m.From
		}
		barrier := func() { barrier(ln, r) }
		barrier()
		r.MetricsWindowStart()
		if id == 0 {
			out.setupS = time.Since(t0).Seconds()
			out.from = readUsage()
			last = out.from.at
		}
		for round := 0; round < rounds; round++ {
			ln.setUnit(unit0 + round)
			ln.begin("round")

			// Ring halo exchange.
			r.SetPhase(par.PhaseFlow)
			ln.begin("par.halo")
			for i := 0; i < haloPerWay; i++ {
				send(up, tagHaloUp, pl.halo[id])
				send(down, tagHaloDown, pl.halo[id])
			}
			for i := 0; i < haloPerWay; i++ {
				recv(down, tagHaloUp)
				recv(up, tagHaloDown)
			}
			ln.end()
			barrier()

			// Pipeline chain: stage s may send segment i only after it
			// received segment i from stage s−1 (the ADI line pattern).
			ln.begin("par.pipeline")
			for i := 0; i < linesPerUnit; i++ {
				if id > 0 {
					recv(id-1, tagLine)
				}
				if id < n-1 {
					send(id+1, tagLine, pl.line[id])
				}
			}
			ln.end()
			barrier()

			// Wildcard fan-in with replies (the donor-request pattern).
			r.SetPhase(par.PhaseConnect)
			ln.begin("par.fanin")
			if id == 0 {
				for i := 1; i < n; i++ {
					from := recv(par.AnyRank, tagReq)
					send(from, tagRep, pl.rep[0])
				}
			} else {
				send(0, tagReq, pl.req[id])
				recv(0, tagRep)
			}
			ln.end()
			barrier()

			r.SetPhase(par.PhaseOther)
			ln.begin("par.allreduce")
			if got := r.AllReduceMax(float64(id + round)); got != float64(n-1+round) {
				bad[id]++
			}
			ln.end()
			ln.begin("par.allgather")
			all := r.AllGather([gatherBytes / 8]uint64{uint64(id), uint64(round)}, gatherBytes)
			for k, v := range all {
				if v.([gatherBytes / 8]uint64) != [gatherBytes / 8]uint64{uint64(k), uint64(round)} {
					bad[id]++
				}
			}
			ln.end()
			barrier()
			ln.end() // round
			ln.setUnit(-1)
			if id == 0 {
				now := time.Now()
				out.unitsMS = append(out.unitsMS, now.Sub(last).Seconds()*1e3)
				last = now
			}
		}
		r.MetricsWindowEnd()
		sums[id] = sum
		if id == 0 {
			out.to = readUsage()
			out.clock = r.Clock
		}
	})
	for id := range sums {
		out.checksum += sums[id]
		out.badColl += bad[id]
	}
	return out
}

// parPattern is the only workload where par does all the work, so message
// batching, run-to-block scheduling or dropping the boxing of payloads show
// undiluted; flow, dcf and serve are untouched.
func parPattern() workload {
	collect := func(p *pass, pl parPayloads, run parRun, rounds int) {
		p.attempts += rounds
		fp := fmt.Sprintf("clock=%016x", math.Float64bits(run.clock))
		switch {
		case run.checksum != uint64(rounds)*pl.roundChecksum():
			p.failed += rounds
			p.fail("payload checksum %x, want %x", run.checksum, uint64(rounds)*pl.roundChecksum())
			return
		case run.badColl > 0:
			p.failed += rounds
			p.fail("%d collective results were wrong", run.badColl)
			return
		case p.fingerprint == "":
			p.fingerprint = fp
		case fp != p.fingerprint:
			p.failed += rounds
			p.fail("virtual clock differs between repeats: %s, then %s", p.fingerprint, fp)
			return
		}
		p.setupsS = append(p.setupsS, run.setupS)
		p.unitsMS = append(p.unitsMS, run.unitsMS...)
		p.m.add(run.from, run.to, rounds)
	}
	return workload{
		name:      "par_pattern",
		onep:      true,
		exercises: []string{"par.", "trace.span", "unit_ms_p90", "unit_ms_p50_1p", "speedup_np", "trace_overhead_frac"},
		warmUp: func(e *env) {
			runPattern(genPayloads(e.seed, e.sz.parRanks), min(e.sz.parRounds, 20), nil, 0, nil)
		},
		repeat: func(e *env, p *pass) {
			pl := genPayloads(e.seed, e.sz.parRanks)
			collect(p, pl, runPattern(pl, e.sz.parRounds, nil, 0, nil), e.sz.parRounds)
		},
		trace: func(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64) {
			p := &pass{procs: e.procs, fingerprint: base.fingerprint}
			n, rounds := e.sz.parRanks, e.sz.parRounds
			pl := genPayloads(e.seed, n)
			tr := newTracer(n, func(i int) string { return fmt.Sprintf("rank %d", i) })
			lm := map[string]float64{}
			reg := metrics.New()
			var untracedMS []float64
			units := 0
			withProcs(e.procs, func() {
				interleave(d, func() {
					untracedMS = append(untracedMS, runPattern(pl, rounds, nil, 0, nil).unitsMS...)
				}, func() {
					if units >= maxTracedRounds {
						return // enough spans; the trace file stays loadable
					}
					collect(p, pl, runPattern(pl, rounds, tr, units, reg), rounds)
					units += rounds
				})
			})
			if len(p.unitsMS) == 0 {
				return p, tr, lm
			}
			lm["trace_overhead_frac"] = median(p.unitsMS)/median(untracedMS) - 1
			self := tr.selfMSPerUnit(units)
			lm["par.barrier_wait_ms"] = self["par.barrier"]
			lm["trace.span_coverage_frac"] = tr.coverage("round")
			parCounts(lm, reg, n, float64(rounds), tagHaloUp, tagHaloDown, tagLine, tagReq, tagRep)
			return p, tr, lm
		},
	}
}
