package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"overd"
	"overd/internal/balance"
	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/overset"
	"overd/internal/par"
	"overd/internal/serve"
)

// Isolated probes: tight loops on the public functions of one layer, away
// from any workload. Each reports the median over batches of the time per
// operation, so that a layer's own cost can be told from what the layers
// around it do. They run at P; the inputs are fixed.

// perOp calls fn — which performs ops operations — once to warm up and then
// batches times, and returns the median seconds per operation.
func perOp(batches, ops int, fn func()) float64 {
	fn()
	samples := make([]float64, batches)
	for b := range samples {
		t0 := time.Now()
		fn()
		samples[b] = time.Since(t0).Seconds() / float64(ops)
	}
	return median(samples)
}

// inWorld runs body on every rank of a fresh n-rank world for batches
// timed batches (after one warm-up batch) with a barrier before each, and
// returns rank 0's median seconds per operation.
func inWorld(n, k, batches, ops int, body func(r *par.Rank)) float64 {
	w := par.NewWorld(n, machine.SP2())
	w.SetParallelism(k)
	samples := make([]float64, 0, batches)
	w.Run(func(r *par.Rank) {
		for b := -1; b < batches; b++ {
			r.Barrier()
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				body(r)
			}
			if r.ID == 0 && b >= 0 {
				samples = append(samples, time.Since(t0).Seconds()/float64(ops))
			}
		}
	})
	return median(samples)
}

const probeTag = par.TagUser + 50

func pingpong(r *par.Rank) {
	if r.ID == 0 {
		r.Send(1, probeTag, nil, 8)
		r.Recv(1, probeTag)
	} else {
		r.Recv(0, probeTag)
		r.Send(0, probeTag, nil, 8)
	}
}

func probePar(lm map[string]float64, batches int) {
	const ranks = 24
	lm["par.pingpong_ns"] = 1e9 * inWorld(2, 0, batches, 2000, pingpong)
	lm["par.pingpong_k1_ns"] = 1e9 * inWorld(2, 1, batches, 2000, pingpong)
	lm["par.fanin_ns"] = 1e9 / (ranks - 1) * inWorld(ranks, 0, batches, 100, func(r *par.Rank) {
		if r.ID == 0 {
			for i := 1; i < ranks; i++ {
				m := r.Recv(par.AnyRank, probeTag)
				r.Send(m.From, probeTag+1, nil, 64)
			}
		} else {
			r.Send(0, probeTag, nil, 56)
			r.Recv(0, probeTag+1)
		}
	})
	lm["par.barrier_ns"] = 1e9 * inWorld(ranks, 0, batches, 200, func(r *par.Rank) { r.Barrier() })
	lm["par.allgather_ns"] = 1e9 * inWorld(ranks, 0, batches, 100, func(r *par.Rank) {
		r.AllGather([gatherBytes / 8]uint64{uint64(r.ID)}, gatherBytes)
	})
	lm["par.allreduce_ns"] = 1e9 * inWorld(ranks, 0, batches, 100, func(r *par.Rank) {
		r.AllReduceMax(float64(r.ID))
	})

	var arena par.Arena[parEnvelope]
	arena.Init(2)
	const arenaOps = 200000
	lm["par.arena_getput_ns"] = 1e9 * perOp(batches, arenaOps, func() {
		for i := 0; i < arenaOps; i++ {
			arena.Put(0, arena.Get(0))
		}
	})
	// Taken on one rank, returned on another: once the receiver's shard is
	// full every pair goes through the shared overflow list.
	lm["par.arena_migrate_ns"] = 1e9 * perOp(batches, arenaOps, func() {
		for i := 0; i < arenaOps; i++ {
			arena.Put(1, arena.Get(0))
		}
	})

	// Heap allocations per message on the pooled-envelope send path.
	const msgs = 20000
	var mallocs uint64
	arena.Init(2)
	w := par.NewWorld(2, machine.SP2())
	w.Run(func(r *par.Rank) {
		var before runtime.MemStats
		for pass := 0; pass < 2; pass++ { // the first pass grows the mailboxes
			r.Barrier()
			if r.ID == 0 && pass == 1 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < msgs/2; i++ {
				if r.ID == 0 {
					r.Send(1, probeTag, arena.Get(0), 256)
					arena.Put(0, r.Recv(1, probeTag).Data.(*parEnvelope))
				} else {
					arena.Put(1, r.Recv(0, probeTag).Data.(*parEnvelope))
					r.Send(0, probeTag, arena.Get(1), 256)
				}
			}
			r.Barrier()
		}
		if r.ID == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
	})
	lm["par.allocs_per_msg"] = float64(mallocs) / msgs

	lm["par.world_spawn_us"] = 1e6 * perOp(batches, 20, func() {
		for i := 0; i < 20; i++ {
			par.NewWorld(52, machine.SP2()).Run(func(*par.Rank) {})
		}
	})
}

func probeFlow(lm map[string]float64, batches int) {
	// The delta-wing body grid as one block, viscous in all directions:
	// the kernel mix of deltawing_flow without neighbours to wait for.
	c := overd.DescendingDeltaWing(0.1)
	g := c.Sys.Grids[0]
	build := func() *flow.Block {
		b := flow.BuildBlocks(g, []grid.IBox{g.Full()}, []int{0}, c.FS)[0]
		b.SetViscousDirs([3]bool{true, true, true})
		return b
	}
	lm["flow.newblock_ms"] = 1e3 * perOp(batches, 1, func() { build() })
	b := build()
	pts := float64(b.NOwned())
	const dt = 0.01
	var rhsFlops, adiFlops float64
	rhs := perOp(batches, 1, func() { rhsFlops = b.ComputeRHS(dt) })
	var adi float64
	par.NewWorld(1, machine.SP2()).Run(func(r *par.Rank) {
		adi = perOp(batches, 1, func() { adiFlops = b.SolveADI(r, dt) })
	})
	lm["flow.rhs_ns_per_pt"] = 1e9 * rhs / pts
	lm["flow.adi_ns_per_pt"] = 1e9 * adi / pts
	lm["flow.rhs_host_mflops"] = rhsFlops / rhs / 1e6
	lm["flow.adi_host_mflops"] = adiFlops / adi / 1e6
}

func probeOverset(lm map[string]float64, batches int) {
	ring := gridgen.Annulus(0, "ring", 128, 32, 0, 0, 1, 4)
	target := geom.Vec3{X: 2.4, Y: 1.1}
	cold := overset.FindDonor(ring, 0, target, [3]int{})
	if !cold.OK {
		panic("probe: donor search failed on the annulus")
	}
	warmStart := [3]int{cold.Donor.I, cold.Donor.J, cold.Donor.K}
	const searches = 2000
	search := func(start [3]int) func() {
		return func() {
			for i := 0; i < searches; i++ {
				overset.FindDonor(ring, 0, target, start)
			}
		}
	}
	lm["overset.find_donor_cold_ns"] = 1e9 * perOp(batches, searches, search([3]int{}))
	lm["overset.find_donor_warm_ns"] = 1e9 * perOp(batches, searches, search(warmStart))

	cfg := overd.StoreSeparation(0.25).Overset
	lm["overset.assemble_serial_ms"] = 1e3 * perOp(batches, 1, func() { cfg.Assemble() })
	lm["overset.holemap_rebuild_ms"] = 1e3 * perOp(batches, 1, cfg.RebuildHoleMaps)
	lm["overset.cut_holes_ms"] = 1e3 * perOp(batches, 1, func() { cfg.CutHoles() })
	lm["overset.mark_fringes_ms"] = 1e3 * perOp(batches, 1, cfg.MarkFringes)
}

func probeSetup(lm map[string]float64, batches int) {
	lm["cases.build_storesep_ms"] = 1e3 * perOp(batches, 1, func() { overd.StoreSeparation(0.5) })
	lm["cases.build_deltawing_ms"] = 1e3 * perOp(batches, 1, func() { overd.DescendingDeltaWing(0.1) })

	c := overd.StoreSeparation(0.5)
	store := c.Sys.Grids[0]
	xf, _ := motionAt(c, 0, c.DT)
	lm["grid.apply_transform_ns_per_pt"] = 1e9 / float64(store.NPoints()) *
		perOp(batches, 1, func() { store.ApplyTransform(xf) })

	const nodes = 52
	in := balance.Input{Sizes: c.GridSizes(), Dims: c.GridDims(), NP: nodes,
		Centers: make([][3]float64, len(c.Sys.Grids))}
	for i, g := range c.Sys.Grids {
		b := g.Bounds()
		in.Centers[i] = [3]float64{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
	}
	plan := func(name string) float64 {
		bal, err := balance.New(name, balance.Params{Fo: math.Inf(1)})
		if err != nil {
			panic(err)
		}
		return 1e6 * perOp(batches, 20, func() {
			for i := 0; i < 20; i++ {
				if _, err := bal.Plan(in); err != nil {
					panic(err)
				}
			}
		})
	}
	lm["balance.static_plan_us"] = plan("static")
	lm["balance.sfc_plan_us"] = plan("sfc")
	cur, _, _ := staticPlan(c, nodes)
	received := make([]int, nodes)
	for i := range received {
		received[i] = 100 + 40*(i%7) // rank 6, 13, … serve 3.4 × the least loaded
	}
	dyn := balance.Dynamic{Fo: 1.5, CheckInterval: 5}
	lm["balance.dynamic_check_us"] = 1e6 * perOp(batches, 20, func() {
		for i := 0; i < 20; i++ {
			if _, _, err := dyn.Check(cur, in.Sizes, received); err != nil {
				panic(err)
			}
		}
	})
}

// serveProbeJob is the request behind the serve probes: the kind of job
// serve_mixed's hot set holds, so a hit copies a typical artifact set.
var serveProbeJob = serve.Job{Case: "airfoil", Nodes: 6, Steps: missSteps, Scale: 0.1}

// probeTraceMetrics times the exports of one recorded run: store separation
// at scale 0.1 on 16 nodes, 3 steps.
func probeTraceMetrics(lm map[string]float64, batches int) {
	rec, reg := overd.NewTraceRecorder(), overd.NewMetricsRegistry()
	_, err := overd.Run(overd.Config{Case: overd.StoreSeparation(0.1), Nodes: 16,
		Machine: overd.SP2(), Steps: 3, Fo: math.Inf(1), Trace: rec, Metrics: reg})
	if err != nil {
		panic(err)
	}
	lm["trace.chrome_export_ms"] = 1e3 * perOp(batches, 1, func() {
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			panic(err)
		}
	})
	lm["trace.summarize_ms"] = 1e3 * perOp(batches, 1, func() { rec.Summarize() })
	lm["metrics.write_json_ms"] = 1e3 * perOp(batches, 1, func() {
		if err := reg.WriteJSON(io.Discard); err != nil {
			panic(err)
		}
	})
}

func probeServe(lm map[string]float64, batches int, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	// note keeps the first error of a timed loop; the loop runs on, and the
	// probe reports the error when it returns.
	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}

	job, err := serveProbeJob.Normalize()
	if err != nil {
		return err
	}
	var art *serve.Artifacts
	lm["serve.runjob_ms"] = 1e3 * perOp(batches, 1, func() {
		var err error
		art, err = serve.RunJob(ctx, job, nil)
		note(err)
	})
	if opErr != nil {
		return opErr
	}

	body := jobRequest{Case: job.Case, Nodes: job.Nodes, Steps: job.Steps, Scale: job.Scale}.body()
	const parses = 200
	lm["serve.parse_hash_us"] = 1e6 * perOp(batches, parses, func() {
		for i := 0; i < parses; i++ {
			j, err := serve.ParseJob(body)
			note(err)
			j.Hash()
		}
	})

	// fresh returns the i-th of an endless supply of distinct requests.
	fresh := func(i int) serve.Job {
		j := job
		j.Scale = 0.1 + float64(i)*1e-6
		return j
	}
	hashOf := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		return hex.EncodeToString(sum[:])
	}
	mem := serve.NewCache(0, "")
	if err := mem.Put(hashOf(0), art); err != nil {
		return err
	}
	const gets = 50
	lm["serve.cache_get_us"] = 1e6 * perOp(batches, gets, func() {
		for i := 0; i < gets; i++ {
			mem.Get(hashOf(0))
		}
	})
	disk := serve.NewCache(0, filepath.Join(dir, "cache"))
	puts := 0
	lm["serve.cache_put_ms"] = 1e3 * perOp(batches, 1, func() {
		puts++
		note(disk.Put(hashOf(puts), art))
	})

	// Submit, with a Runner that returns at once: admission, journal and
	// queueing are the subject, not execution. A hit copies the recorded
	// artifacts, as a real one does; a miss publishes a token result.
	stub := func(result *serve.Artifacts) serve.Runner {
		return func(context.Context, serve.Job, func(serve.Event)) (*serve.Artifacts, error) {
			return result, nil
		}
	}
	token := &serve.Artifacts{Tables: []byte("{}\n"), Steps: 1}
	submits := 0
	submit := func(journalDir string, ops int, hit bool) (float64, error) {
		result := token
		if hit {
			result = art
		}
		srv, err := serve.NewServer(serve.Config{Runner: stub(result), JournalDir: journalDir,
			QueueDepth: 1 << 16, FlightRecorder: -1})
		if err != nil {
			return 0, err
		}
		srv.Start()
		if hit {
			for status := serve.CacheMiss; status != serve.CacheHit; {
				if _, status, err = srv.Submit(job); err != nil {
					return 0, err
				}
			}
		}
		secs := perOp(batches, ops, func() {
			for i := 0; i < ops; i++ {
				j := job
				if !hit {
					submits++
					j = fresh(submits)
				}
				_, _, err := srv.Submit(j)
				note(err)
			}
		})
		return secs, srv.Shutdown(ctx)
	}
	var secs float64
	if secs, err = submit("", 50, true); err != nil {
		return err
	}
	lm["serve.submit_hit_us"] = 1e6 * secs
	if secs, err = submit("", 50, false); err != nil {
		return err
	}
	lm["serve.submit_miss_nojournal_us"] = 1e6 * secs
	if secs, err = submit(filepath.Join(dir, "journal"), 50, false); err != nil {
		return err
	}
	lm["serve.submit_miss_us"] = 1e6 * secs

	// Replay: start a server over a journal of 1 000 records — 500 jobs
	// admitted and finished. Opening compacts the journal, so each batch
	// starts from a copy of the recorded one.
	recorded := filepath.Join(dir, "recorded")
	srv, err := serve.NewServer(serve.Config{Runner: stub(token), JournalDir: recorded,
		QueueDepth: 1 << 16, FlightRecorder: -1})
	if err != nil {
		return err
	}
	srv.Start()
	for i := 0; i < 500; i++ {
		submits++
		if _, _, err := srv.Submit(fresh(submits)); err != nil {
			return err
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	samples := make([]float64, batches)
	for b := range samples {
		jd := filepath.Join(dir, fmt.Sprintf("replay-%d", b))
		if err := copyFiles(jd, recorded); err != nil {
			return err
		}
		t0 := time.Now()
		srv, err := serve.NewServer(serve.Config{Runner: stub(token), JournalDir: jd, FlightRecorder: -1})
		samples[b] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	lm["serve.replay_ms"] = 1e3 * median(samples)
	return opErr
}

// copyFiles copies the regular files of directory src into a new directory.
func copyFiles(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runProbes measures every isolated probe at P.
func runProbes(e *env) (map[string]float64, error) {
	lm := map[string]float64{}
	var err error
	withProcs(e.procs, func() {
		b := e.sz.probeBatches
		probePar(lm, b)
		probeFlow(lm, b)
		probeOverset(lm, b)
		probeSetup(lm, b)
		probeTraceMetrics(lm, b)
		err = probeServe(lm, b, e.out)
	})
	return lm, err
}
