package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"overd"
)

// Runner executes one job, reporting progress events along the way, and
// returns its artifacts. The context is the job's cancellation scope
// (DELETE /jobs/{id}, deadline expiry, server kill): a Runner should stop
// promptly once it is done and return ctx.Err(). The Server's default is
// RunJob on the server's Storage; tests substitute stubs to script timing
// and failures without paying for real solves.
type Runner func(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error)

// RunJob executes a normalized job through the real pipeline and assembles
// its cacheable artifacts: the tables JSON-lines document (the run's own
// rows plus any selected paper tables), the trace-summary JSON, and the
// metrics JSON. Every byte is a pure function of the job's canonical form —
// the property the content-addressed cache relies on.
//
// The context and the job's max_steps budget are threaded into the
// solver's Config.Interrupt hook, which rank 0 polls at step boundaries:
// a cancelled run stops at the next boundary, and a run that never trips
// the hook is bit-identical to one with no hook at all (the poll is
// host-side and charges nothing to the virtual clocks).
//
// progress (may be nil) receives one step event per completed timestep,
// carrying the step's virtual-time phase split and a live windowed-metrics
// snapshot (cumulative messages/bytes sent). The snapshot reads the run's
// registry mid-flight, which the registry's shard locks make safe and the
// bit-identity tests prove free.
func RunJob(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error) {
	return runJob(ctx, job, progress, nil)
}

// runJob is RunJob drawing on storage for the run and for any tables it
// regenerates; nil makes what they need and drops it, as a plain overd.Run
// does. A Server passes its own, and no Storage changes an artifact byte.
func runJob(ctx context.Context, job Job, progress func(Event), storage *overd.Storage) (*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mk, err := caseByName(job.Case)
	if err != nil {
		return nil, err
	}
	m, err := overd.MachineByName(job.Machine)
	if err != nil {
		return nil, err
	}
	fo := math.Inf(1) // canonical 0 means "dynamic balancing off"
	if job.Fo > 0 {
		fo = job.Fo
	}
	// The recorder and the scratch every document is encoded in go back
	// only once all four artifacts are copied out of them.
	enc := storage.GetEncoder()
	defer storage.PutEncoder(enc)
	rec := enc.Rec
	reg := overd.NewMetricsRegistry()
	cfg := overd.Config{
		Case: mk(job.Scale), Nodes: job.Nodes, Machine: m,
		Steps: job.Steps, Fo: fo, CheckInterval: job.CheckEvery,
		Balancer: job.Balancer,
		Faults:   job.Faults, CheckpointEvery: job.CheckpointEvery,
		Trace: rec, Metrics: reg, Storage: storage,
		// Host-side parallelism bound; excluded from the cache key because
		// the runtime guarantees it cannot change a single artifact byte.
		Workers: job.Workers,
	}
	// The cancellation hook. Each poll marks one completed step, so the
	// monotonic count doubles as the max_steps budget meter (it keeps
	// counting across checkpoint-recovery attempts, which re-execute
	// steps). The final step of a run is never polled, so max_steps ==
	// steps lets a clean run finish.
	executed := 0
	cfg.Interrupt = func(step int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		executed++
		if job.MaxSteps > 0 && executed >= job.MaxSteps {
			return fmt.Errorf("max_steps budget of %d exhausted", job.MaxSteps)
		}
		return nil
	}
	if progress != nil {
		nodes := job.Nodes
		cfg.OnStep = func(step int, stats overd.StepStats, vclock float64) {
			snap := &StepSnapshot{
				Flow: stats.Flow, Motion: stats.Motion,
				Connect: stats.Connect, Balance: stats.Balance,
				IGBPs: stats.IGBPs, MaxF: stats.MaxF,
			}
			for rank := 0; rank < nodes; rank++ {
				snap.MsgsSent += reg.SumSeries("overd_par_msgs_sent_total", rank)
				snap.BytesSent += reg.SumSeries("overd_par_bytes_sent_total", rank)
			}
			progress(Event{Type: "step", Step: step, VClock: vclock, Snapshot: snap})
		}
	}
	res, err := overd.Run(cfg)
	if err != nil {
		return nil, err
	}

	buf := bytes.NewBuffer(enc.Scratch[:0])
	if err := overd.EmitRunJSON(buf, res); err != nil {
		return nil, fmt.Errorf("serve: emitting run rows: %w", err)
	}
	if len(job.Tables) > 0 {
		want := make(map[string]bool, len(job.Tables))
		for _, id := range job.Tables {
			want[id] = true
		}
		opt := overd.Options{Scale: job.Scale, Steps: job.Steps, Storage: storage}
		if err := overd.EmitTablesJSON(buf, opt, want); err != nil {
			return nil, fmt.Errorf("serve: emitting tables %v: %w", job.Tables, err)
		}
	}
	tables := enc.Keep(buf.Bytes())

	buf = bytes.NewBuffer(enc.Scratch)
	je := json.NewEncoder(buf)
	je.SetIndent("", "  ")
	if err := je.Encode(rec.Summarize()); err != nil {
		return nil, fmt.Errorf("serve: encoding trace summary: %w", err)
	}
	traceJSON := enc.Keep(buf.Bytes())

	metricsJSON := enc.Keep(reg.AppendJSON(enc.Scratch))

	// The full virtual-time timeline, kept as an artifact so the span layer
	// can later merge the service's wall-clock spans next to it (GET
	// /jobs/{id}/spans?format=chrome) without re-running the solve. Like
	// every artifact it is a pure function of the canonical job.
	chrome, err := rec.AppendChromeTrace(enc.Scratch)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding chrome trace: %w", err)
	}

	return &Artifacts{
		Tables:  tables,
		Trace:   traceJSON,
		Metrics: metricsJSON,
		Chrome:  enc.Keep(chrome),
		Steps:   len(res.Steps) + res.RecoverySteps,
	}, nil
}
