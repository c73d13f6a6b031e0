package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many timed units, set-ups or batches the value
	// summarizes (0 for counts and ratios read once).
	Samples int `json:"samples,omitempty"`
	// From names the pass a per-layer value was measured on when that is
	// not the named workload's own full-size pass: "probe", or
	// "toy:<workload>" for a layer the named workload does not exercise.
	From string `json:"from,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Seconds   float64          `json:"seconds"`
	WallS     float64          `json:"wall_s"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Failures  []string         `json:"failures,omitempty"`
	// Checks are the reconciliation checks of a traced run: diagnostics
	// about the instrument, never failed units of the program.
	Checks []string `json:"checks,omitempty"`
	// Omitted gives the reason for each metric of the contract that this
	// run could not measure (a speed-up on a one-CPU host).
	Omitted map[string]string `json:"omitted,omitempty"`
}

// host is recorded in every result file: numbers from different hosts are
// not comparable, and a file must say which it came from.
type host struct {
	NumCPU    int    `json:"num_cpu"`
	P         int    `json:"p"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	CPUModel  string `json:"cpu_model"`
	Seed      int64  `json:"seed"`
	GitCommit string `json:"git_commit"`
	When      string `json:"when"`
}

type resultFile struct {
	Host host        `json:"host"`
	Runs []runResult `json:"runs"`
}

func hostFacts(p int, seed int64) host {
	h := host{NumCPU: runtime.NumCPU(), P: p, GoVersion: runtime.Version(), Seed: seed,
		Kernel: "unknown", CPUModel: "unknown", GitCommit: "unknown",
		When: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; a developer's is.
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		h.GitCommit = head
	}
	return h
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes one line per metric: workload, name, value, unit, samples.
func (r *runResult) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		line := fmt.Sprintf("%-17s %-34s %14.6g %-6s", r.Workload, name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.From != "" {
			line += " from=" + v.From
		}
		fmt.Fprintln(w, line)
	}
	for name, why := range r.Omitted {
		fmt.Fprintf(w, "%-17s %-34s omitted: %s\n", r.Workload, name, why)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "%-17s check %s\n", r.Workload, c)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-17s FAILED: %s\n", r.Workload, f)
	}
	fmt.Fprintf(w, "%-17s attempted=%d failed=%d correct=%v wall=%.1fs\n",
		r.Workload, r.Attempted, r.Failed, r.Correct, r.WallS)
}

// printContract writes the one JSON object the benchmark contract asks for
// as the last line of standard output.
func (r *runResult) printContract(w io.Writer) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = metric{v.Value, v.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// finish turns measured numbers into the run's result: it keeps exactly the
// metrics the contract lists for this kind of run, and a metric the
// contract lists that is missing or not finite makes the run incorrect
// unless its omission was explained.
func (r *runResult) finish(e *env, measured map[string]value) {
	r.Metrics = map[string]value{}
	for _, m := range e.spec.list(r.Traced) {
		v, ok := measured[m.Name]
		switch {
		case ok && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0):
			v.Unit = m.Unit
			r.Metrics[m.Name] = v
		case r.Omitted[m.Name] != "":
		default:
			r.Failures = append(r.Failures, fmt.Sprintf("metric %s was not measured", m.Name))
			r.Failed++
		}
	}
	if r.Attempted == 0 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

func (r *runResult) tally(passes ...*pass) {
	for _, p := range passes {
		r.Attempted += p.attempts
		r.Failed += p.failed
		r.Failures = append(r.Failures, p.failures...)
	}
}

// runEndToEnd is the untraced run: one pass at P with nothing attached.
func runEndToEnd(e *env, w workload, d time.Duration) runResult {
	t0 := time.Now()
	r := runResult{Workload: w.name, Seed: e.seed, Seconds: d.Seconds()}
	p := measure(e, w, d, e.procs)[0]
	r.tally(p)
	measured := map[string]value{}
	if len(p.unitsMS) > 0 {
		for name, v := range p.endToEnd() {
			n := p.m.units
			switch name {
			case "setup_s":
				n = len(p.setupsS)
			case "unit_ms_p50":
				n = len(p.unitsMS)
			}
			measured[name] = value{Value: v, Samples: n}
		}
	}
	r.finish(e, measured)
	r.WallS = time.Since(t0).Seconds()
	return r
}

// oneCPUOmissions explains the metrics a host with one CPU cannot give:
// there P is 1, a GOMAXPROCS=1 pass would repeat the only pass there is, and
// a speed-up of 1.0 by construction says nothing. They are left out and
// flagged, never recorded.
func oneCPUOmissions(procs int) map[string]string {
	if procs >= 2 {
		return nil
	}
	const why = "one CPU: no second GOMAXPROCS setting to compare"
	return map[string]string{"unit_ms_p50_1p": why, "speedup_np": why}
}

// tracedPass runs a workload's untraced pass at P — interleaved with a
// GOMAXPROCS=1 pass where it has one — and then its traced pass, and returns
// the per-layer metrics they give.
func tracedPass(e *env, w workload, d time.Duration, r *runResult) (map[string]value, *tracer) {
	lm := map[string]value{}
	procs := []int{e.procs}
	if w.onep && e.procs >= 2 {
		procs = append(procs, 1)
	}
	passes := measure(e, w, d/2, procs...)
	r.tally(passes...)
	base := passes[0]
	if len(base.unitsMS) == 0 {
		return lm, nil
	}
	if v, ok := p90(base.unitsMS); ok {
		lm["unit_ms_p90"] = value{Value: v, Samples: len(base.unitsMS)}
	}
	if len(passes) == 2 {
		one := passes[1]
		if one.fingerprint != base.fingerprint {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("virtual outcome differs between GOMAXPROCS=1 and %d: %s, %s",
				e.procs, one.fingerprint, base.fingerprint))
		}
		if len(one.unitsMS) > 0 {
			lm["unit_ms_p50_1p"] = value{Value: median(one.unitsMS), Samples: len(one.unitsMS)}
			lm["speedup_np"] = value{Value: median(one.unitsMS) / median(base.unitsMS), Samples: len(one.unitsMS)}
		}
	}
	tp, tr, layer := w.trace(e, d/2, base)
	r.tally(tp)
	for name, v := range layer {
		lm[name] = value{Value: v}
	}
	return lm, tr
}

// runTraced is the traced run: the named workload at full size with spans
// kept in memory and written at exit, every isolated probe, and — for the
// layers the named workload does not exercise — the other workloads at toy
// size, so that every per-layer metric of the contract is measured.
func runTraced(e *env, w workload, d time.Duration) runResult {
	t0 := time.Now()
	r := runResult{Workload: w.name, Seed: e.seed, Traced: true, Seconds: d.Seconds(), Omitted: oneCPUOmissions(e.procs)}
	lm, tr := tracedPass(e, w, d, &r)
	if tr != nil {
		if err := tr.writeChrome(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
			r.Failed++
			r.Failures = append(r.Failures, err.Error())
		}
	}
	probes, err := runProbes(e)
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, "probes: "+err.Error())
	}
	for name, v := range probes {
		lm[name] = value{Value: v, Samples: e.sz.probeBatches, From: "probe"}
	}
	fillFromToys(e, w, lm, &r)
	// failed_frac is printed last so that it covers everything above.
	lm["failed_frac"] = value{Value: float64(r.Failed) / float64(max(r.Attempted, 1))}
	r.finish(e, lm)
	r.reconcile()
	r.WallS = time.Since(t0).Seconds()
	return r
}

// reconcile records the reconciliation checks that apply to the named
// workload's own full-size numbers: the spans must account for the time
// they claim to explain, the server's clock must agree with the client's,
// and the replica must be the program it stands in for.
func (r *runResult) reconcile() {
	for _, c := range []struct {
		metric, want string
		holds        func(v float64) bool
	}{
		{"trace.span_coverage_frac", ">= 0.95", func(v float64) bool { return v >= 0.95 }},
		{"serve.reconcile_frac", "<= 0.1", func(v float64) bool { return v <= 0.1 }},
		{"core.replica_match", "= 1", func(v float64) bool { return v == 1 }},
	} {
		v, ok := r.Metrics[c.metric]
		if !ok || v.From != "" {
			continue
		}
		verdict := "ok"
		if !c.holds(v.Value) {
			verdict = "VIOLATED"
		}
		r.Checks = append(r.Checks, fmt.Sprintf("%s %s: %s (%.4g)", c.metric, c.want, verdict, v.Value))
	}
}

// fillFromToys measures the per-layer metrics still missing from lm on the
// toy-size traced pass of the first other workload that exercises their
// layer.
func fillFromToys(e *env, named workload, lm map[string]value, r *runResult) {
	missing := func(w workload) bool {
		for _, m := range e.spec.PerLayer {
			if _, have := lm[m.Name]; have || r.Omitted[m.Name] != "" {
				continue
			}
			for _, prefix := range w.exercises {
				if strings.HasPrefix(m.Name, prefix) {
					return true
				}
			}
		}
		return false
	}
	toy := *e
	toy.sz = toySizes
	for _, w := range workloads() {
		if w.name == named.name || !missing(w) {
			continue
		}
		var sub runResult
		got, _ := tracedPass(&toy, w, 0, &sub)
		// A toy pass that fails is a failure of the benchmark run too.
		r.Attempted += sub.Attempted
		r.Failed += sub.Failed
		r.Failures = append(r.Failures, sub.Failures...)
		for name, v := range got {
			if _, have := lm[name]; !have {
				v.From = "toy:" + w.name
				lm[name] = v
			}
		}
	}
}

// smokeRun runs every workload at toy size, untraced and traced, and checks
// that between them and the probes every metric of the contract is
// measured and finite.
func smokeRun(sp *spec, procs int, out string) error {
	e := &env{spec: sp, seed: 1, procs: procs, sz: toySizes, out: out}
	var problems []string
	layer := map[string]value{}
	for _, w := range workloads() {
		res := runEndToEnd(e, w, 0)
		res.print(os.Stderr)
		if !res.Correct {
			problems = append(problems, fmt.Sprintf("%s: end-to-end run: %v", w.name, res.Failures))
		}
		var sub runResult
		got, tr := tracedPass(e, w, 0, &sub)
		if sub.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: traced run: %v", w.name, sub.Failures))
		}
		if tr == nil {
			problems = append(problems, fmt.Sprintf("%s: no spans", w.name))
		} else if err := tr.writeChrome(filepath.Join(out, "trace-smoke-"+w.name+".json")); err != nil {
			problems = append(problems, err.Error())
		}
		for name, v := range got {
			layer[name] = v
		}
	}
	probes, err := runProbes(e)
	if err != nil {
		problems = append(problems, "probes: "+err.Error())
	}
	for name, v := range probes {
		layer[name] = value{Value: v}
	}
	layer["failed_frac"] = value{}
	final := runResult{Traced: true, Omitted: oneCPUOmissions(procs)}
	final.finish(e, layer)
	problems = append(problems, final.Failures...)
	if len(problems) > 0 {
		return fmt.Errorf("smoke run:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
