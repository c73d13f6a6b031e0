package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"overd/internal/metrics"
	"overd/internal/serve"
	"overd/internal/span"
)

const (
	serveClients = 2 // closed loop: each waits for its reply before the next request
	jobTimeout   = 30 * time.Second
)

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	kind   jobKind
	id     string
	cache  string        // the server's verdict on POST: hit, inflight or miss
	total  time.Duration // POST sent → artifact (or terminal state) received
	toDone time.Duration // POST sent → end of the event stream
	err    error
	spans  *span.View // the server's own stage spans (traced run only)
}

// serveRun is one server lifetime: fresh directories, NewServer, Start,
// eight pre-warmed jobs, then the closed loop over the planned sequence.
type serveRun struct {
	setupS   float64
	from, to usage
	outcomes []jobOutcome
	warm     []jobOutcome
	status   statusDoc
	jobSum   float64 // Σ overd_serve_job_seconds_sum from GET /metrics
}

// statusDoc is the part of GET /status the benchmark reads.
type statusDoc struct {
	Jobs  map[string]float64 `json:"jobs"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Journal struct {
		Appends int64 `json:"appends"`
	} `json:"journal"`
}

// serveClient drives the HTTP surface the way a tenant does.
type serveClient struct {
	base string
	http *http.Client
	ln   *lane // client spans; nil in an untraced run
	sln  *lane // the server's stage spans of this client's jobs

	mu    *sync.Mutex
	first map[string][sha256.Size]byte // hash → digest of its first payload
}

func (c *serveClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runJob performs one job: POST, (DELETE,) events to end of stream, fetch.
func (c *serveClient) runJob(job plannedJob, unit int) (out jobOutcome) {
	out.kind = job.kind
	c.ln.setUnit(unit)
	c.ln.begin("job")
	defer func() {
		c.ln.end()
		c.ln.setUnit(-1)
		if c.ln != nil && out.err == nil {
			out.spans, out.err = c.fetchSpans(out, unit)
		}
	}()
	start := time.Now()
	c.ln.begin("serve.http_post")
	code, data, err := c.do("POST", "/jobs", job.body)
	c.ln.end()
	if err != nil {
		out.err = err
		return
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		out.err = fmt.Errorf("POST /jobs: status %d: %s", code, bytes.TrimSpace(data))
		return
	}
	var view struct{ ID, Hash, Cache string }
	if err := json.Unmarshal(data, &view); err != nil {
		out.err = fmt.Errorf("POST /jobs: %v", err)
		return
	}
	out.id, out.cache = view.ID, view.Cache
	if job.kind == kindCancel {
		c.ln.begin("serve.http_delete")
		code, _, err := c.do("DELETE", "/jobs/"+view.ID, nil)
		c.ln.end()
		// 202: the cancellation took; 409: the job had already finished.
		if err == nil && code != http.StatusAccepted && code != http.StatusConflict {
			err = fmt.Errorf("DELETE: status %d", code)
		}
		if err != nil {
			out.err = err
			return
		}
	}
	c.ln.begin("serve.http_events")
	code, _, err = c.do("GET", "/jobs/"+view.ID+"/events", nil)
	c.ln.end()
	out.toDone = time.Since(start)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET events: status %d", code)
	}
	if err != nil {
		out.err = err
		return
	}
	if job.kind != kindCancel {
		c.ln.begin("serve.http_fetch")
		code, data, err = c.do("GET", "/jobs/"+view.ID+"/result?artifact=tables", nil)
		c.ln.end()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET result: status %d: %s", code, bytes.TrimSpace(data))
		}
		if err != nil {
			out.err = err
			return
		}
		// Content addressing: every payload of a hash equals the first.
		digest := sha256.Sum256(data)
		c.mu.Lock()
		want, seen := c.first[view.Hash]
		if !seen {
			c.first[view.Hash] = digest
		}
		c.mu.Unlock()
		if seen && want != digest {
			out.err = fmt.Errorf("job %s: payload differs from the first payload of hash %.12s", view.ID, view.Hash)
			return
		}
	}
	out.total = time.Since(start)
	if out.total > jobTimeout {
		out.err = fmt.Errorf("job took %v", out.total)
	}
	return
}

// fetchSpans reads the server's span record of a finished job and joins its
// stage spans to the client's by unit id. The record moves to the flight
// recorder a moment after the event stream closes, hence the short retry.
func (c *serveClient) fetchSpans(out jobOutcome, unit int) (*span.View, error) {
	for try := 0; ; try++ {
		code, data, err := c.do("GET", "/jobs/"+out.id+"/spans", nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET spans: status %d", code)
		}
		var v span.View
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("GET spans: %v", err)
		}
		if v.Finished || try == 50 {
			for _, sp := range v.Spans {
				end := sp.Start.Add(time.Duration(sp.DurationSeconds * float64(time.Second)))
				c.sln.addAt("serve.stage_"+sp.Stage, sp.Start, end, unit)
			}
			return &v, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// runServe runs one server lifetime over the planned jobs.
func runServe(e *env, jobs []plannedJob, tr *tracer) (run serveRun, err error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.out, "serve-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)
	flight := -1 // end-to-end numbers are measured with nothing attached
	if tr != nil {
		flight = 0 // the default ring; spans are fetched as each job ends
	}
	srv, err := serve.NewServer(serve.Config{
		Workers:        2,
		CacheDir:       filepath.Join(dir, "cache"),
		JournalDir:     filepath.Join(dir, "journal"),
		FlightRecorder: flight,
	})
	if err != nil {
		return run, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
	}()
	var mu sync.Mutex
	first := map[string][sha256.Size]byte{}
	client := func(i int) *serveClient {
		return &serveClient{base: ts.URL, mu: &mu, first: first,
			http: &http.Client{Timeout: jobTimeout},
			ln:   tr.lane(i), sln: tr.lane(serveClients + i)}
	}
	// Pre-warm the hot set; this is part of set-up.
	warmer := client(0)
	for _, req := range hotJobs() {
		out := warmer.runJob(plannedJob{kind: kindMiss, body: req.body()}, -1)
		if out.err != nil {
			return run, fmt.Errorf("pre-warming: %w", out.err)
		}
		run.warm = append(run.warm, out)
	}
	run.setupS = time.Since(t0).Seconds()

	run.outcomes = make([]jobOutcome, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	run.from = readUsage()
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for idx := range next {
				run.outcomes[idx] = c.runJob(jobs[idx], idx)
			}
		}(client(i))
	}
	for idx := range jobs {
		next <- idx
	}
	close(next)
	wg.Wait()
	run.to = readUsage()

	code, data, err := warmer.do("GET", "/status", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /status: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(data, &run.status)
	}
	if err != nil {
		return run, err
	}
	code, data, err = warmer.do("GET", "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", code)
	}
	if err != nil {
		return run, err
	}
	fams, err := metrics.ParsePrometheus(bytes.NewReader(data))
	if err != nil {
		return run, fmt.Errorf("GET /metrics: %w", err)
	}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			if s.Name == "overd_serve_job_seconds_sum" {
				run.jobSum += s.Value
			}
		}
	}
	return run, nil
}

// collectServe folds one server lifetime into the pass. unit_ms_* are over
// misses; every class counts toward throughput and the per-job resources.
func collectServe(p *pass, run serveRun) {
	p.setupsS = append(p.setupsS, run.setupS)
	done := 0
	for _, out := range run.outcomes {
		p.attempts++
		if out.err != nil {
			p.fail("%s job: %v", out.kind, out.err)
			continue
		}
		done++
		ms := out.total.Seconds() * 1e3
		switch {
		case out.kind == kindMiss && out.cache == "miss":
			p.unitsMS = append(p.unitsMS, ms)
		case out.kind == kindHot:
			p.addExtra("hit_ms", ms)
		case out.kind == kindCold:
			p.addExtra("cold_ms", ms)
		}
	}
	p.m.add(run.from, run.to, done)
}

// serveMixed puts writes beside reads on one server mutex: a miss fsyncs
// the journal and writes through the cache while hits want the same lock,
// and every miss also pays trace, metrics and Chrome-trace emission, which
// no solver workload does.
func serveMixed() workload {
	// lifetime runs one server lifetime; each repeat of a pass draws its
	// own sequence from the run's seed.
	lifetime := func(e *env, p *pass, tr *tracer) (serveRun, bool) {
		jobs := genJobs(e.seed*1000+int64(len(p.setupsS)), e.sz.serveJobs)
		run, err := runServe(e, jobs, tr)
		if err != nil {
			p.attempts++
			p.fail("server lifetime: %v", err)
			return run, false
		}
		collectServe(p, run)
		return run, true
	}
	return workload{
		name:      "serve_mixed",
		exercises: []string{"serve.", "span.", "hit_ms_p50", "trace.span", "trace_overhead_frac"},
		repeat:    func(e *env, p *pass) { lifetime(e, p, nil) },
		trace: func(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64) {
			// One lifetime with the flight recorder off and one with it on
			// and every job's spans fetched, back to back on the same
			// sequence. d is not used: a lifetime is a fixed job count.
			plain := &pass{procs: e.procs}
			p := &pass{procs: e.procs}
			lm := map[string]float64{}
			tr := newTracer(2*serveClients, func(i int) string {
				if i < serveClients {
					return fmt.Sprintf("client %d", i)
				}
				return fmt.Sprintf("server, jobs of client %d", i-serveClients)
			})
			withProcs(e.procs, func() {
				runtime.GC()
				if _, ok := lifetime(e, plain, nil); !ok {
					p.tallyFrom(plain)
					return
				}
				runtime.GC()
				if run, ok := lifetime(e, p, tr); ok && len(p.unitsMS) > 0 {
					serveLayerMetrics(lm, tr, run, p, plain, base)
				}
			})
			return p, tr, lm
		},
	}
}

// serveLayerMetrics derives the serve and span per-layer metrics of a
// traced server lifetime.
func serveLayerMetrics(lm map[string]float64, tr *tracer, run serveRun, traced, plain, base *pass) {
	lm["hit_ms_p50"] = median(base.extra["hit_ms"])
	lm["serve.hit_ms_p90"] = percentile(base.extra["hit_ms"], 0.9)
	lm["serve.cache_disk_hit_ms"] = median(base.extra["cold_ms"])
	lm["span.overhead_frac"] = median(traced.unitsMS)/median(plain.unitsMS) - 1
	lm["trace_overhead_frac"] = lm["span.overhead_frac"]

	// Server-side stage medians over misses, from GET /jobs/{id}/spans.
	stage := map[string][]float64{}
	var clientSum float64
	for _, out := range append(append([]jobOutcome(nil), run.warm...), run.outcomes...) {
		if out.err != nil || out.spans == nil {
			continue
		}
		clientSum += out.toDone.Seconds()
		if out.kind != kindMiss || out.cache != "miss" {
			continue
		}
		for _, sp := range out.spans.Spans {
			stage[sp.Stage] = append(stage[sp.Stage], sp.DurationSeconds)
		}
	}
	lm["serve.stage_admit_us"] = median(stage["admit"]) * 1e6
	lm["serve.stage_cache_lookup_us"] = median(stage["cache-lookup"]) * 1e6
	lm["serve.stage_journal_us"] = median(stage["journal-append"]) * 1e6
	lm["serve.stage_queue_ms"] = median(stage["queue"]) * 1e3
	lm["serve.stage_execute_ms"] = median(stage["execute"]) * 1e3
	lm["serve.stage_publish_ms"] = median(stage["publish"]) * 1e3

	// Client-side call medians over all jobs, from the harness spans.
	calls := map[string][]float64{}
	for _, l := range tr.lanes[:serveClients] {
		for _, s := range l.spans {
			if s.unit >= 0 {
				calls[s.name] = append(calls[s.name], float64(s.end-s.start)/1e6)
			}
		}
	}
	lm["serve.http_post_ms"] = median(calls["serve.http_post"])
	lm["serve.http_events_ms"] = median(calls["serve.http_events"])
	lm["serve.http_fetch_ms"] = median(calls["serve.http_fetch"])
	lm["trace.span_coverage_frac"] = tr.coverage("job")

	// The server's own end-to-end histogram against the client's clock:
	// both span admission → terminal state of the same jobs.
	lm["serve.reconcile_frac"] = math.Abs(run.jobSum-clientSum) / clientSum

	st := run.status
	lm["serve.cache_hit_frac"] = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
	lm["serve.evictions"] = float64(st.Cache.Evictions)
	lm["serve.journal_appends_per_job"] = float64(st.Journal.Appends) / st.Jobs["accepted"]
}
