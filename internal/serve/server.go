package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"overd"
	"overd/internal/metrics"
	"overd/internal/span"
)

// Config sizes the server. Zero values pick modest defaults.
type Config struct {
	// Workers is the worker-pool size: how many jobs solve concurrently.
	// Default 2.
	Workers int
	// QueueDepth caps the number of admitted-but-not-started jobs across
	// all tenants; past it POST /jobs returns 429 + Retry-After. Default 64.
	QueueDepth int
	// CacheBytes is the in-memory result-cache budget. Default 64 MiB.
	CacheBytes int64
	// CacheDir optionally adds a persistent write-through cache tier.
	CacheDir string
	// JournalDir enables the durable job journal: every admitted job is
	// fsync'd to an append-only WAL before Submit acknowledges it, and
	// unfinished jobs are re-queued (in admission order) on the next
	// NewServer against the same directory. Empty means no journal — a
	// crash loses queued and running work, as before.
	JournalDir string
	// Limits caps per-job resource requests (nodes, steps, scale). Zero
	// fields fall back to DefaultLimits.
	Limits Limits
	// RetryBackoff is the fixed wait before the single retry of an
	// infrastructure-classified failure (a runner panic). Deterministic —
	// no jitter — so test schedules replay. Default 100ms.
	RetryBackoff time.Duration
	// EventWriteTimeout bounds each write to a GET /events subscriber; a
	// client slower than this is dropped instead of pinning the handler.
	// Default 10s.
	EventWriteTimeout time.Duration
	// EventHeartbeat is the idle interval after which a GET /events stream
	// emits a synthetic heartbeat event, so a subscriber can tell an idle
	// stream from a dead connection. Heartbeats are synthesized per
	// subscriber at stream time and never stored in the job's event log.
	// Default 15s.
	EventHeartbeat time.Duration
	// FlightRecorder sizes the wall-clock span flight recorder: the last N
	// finished jobs keep their span records resident for GET
	// /jobs/{id}/spans and the /status failure context. 0 picks
	// span.DefaultCapacity (64); negative disables the span layer entirely
	// (zero cost — see internal/span).
	FlightRecorder int
	// Logf, when non-nil, receives operational log lines (panic stacks,
	// journal trouble, replay notes). The sanitized errMsg shown to
	// clients never includes a stack; the full detail lands here.
	Logf func(format string, args ...any)
	// Runner executes jobs; nil means the real pipeline (RunJob), drawing
	// on the server's Storage.
	Runner Runner
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// ErrQueueFull is returned by Submit when admission control rejects a job;
// RetryAfter is the suggested client backoff in seconds, scaled to the
// current queue depth and the mean recent job duration.
type ErrQueueFull struct {
	Depth      int
	RetryAfter int
}

func (e ErrQueueFull) Error() string {
	return fmt.Sprintf("serve: queue full (%d jobs waiting); retry in %ds", e.Depth, e.RetryAfter)
}

// ErrWontMeetDeadline is returned by Submit when the estimated queue wait
// alone already exceeds the job's deadline: queueing it would be admitting
// work the server knows it will throw away.
type ErrWontMeetDeadline struct {
	EstWait    float64 // seconds until a worker would pick the job up
	Deadline   float64 // the job's wall-clock budget in seconds
	RetryAfter int
}

func (e ErrWontMeetDeadline) Error() string {
	return fmt.Sprintf("serve: estimated queue wait %.1fs exceeds the job's %.1fs deadline; retry in %ds",
		e.EstWait, e.Deadline, e.RetryAfter)
}

// ErrShuttingDown is returned by Submit once Shutdown has begun.
var ErrShuttingDown = errors.New("serve: server is shutting down")

// ErrJournalUnavailable wraps a journal append failure at admission: the
// job was NOT accepted, because accepting work that would not survive a
// crash breaks the durability contract the journal exists to keep.
var ErrJournalUnavailable = errors.New("serve: job journal unavailable")

// ErrUnknownJob is returned by Cancel for an id the server never issued.
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrJobFinished is returned by Cancel when the job already reached a
// terminal state.
var ErrJobFinished = errors.New("serve: job already finished")

// jobState is one submitted job's record.
type jobState struct {
	id     string
	hash   string
	tenant string
	job    Job
	seq    int // admission order, for queue-position estimates

	status   JobStatus
	cached   bool
	replayed bool // re-queued from the journal after a restart
	attempts int  // runner invocations (>1 after an infrastructure retry)
	errMsg   string
	art      *Artifacts

	admitted  time.Time
	started   time.Time
	cancelReq bool               // DELETE arrived while running
	cancel    context.CancelFunc // cancels the running attempt's context
	ctx       context.Context

	events *eventLog
	done   chan struct{} // closed on done/failed/cancelled

	// spans is the job's live wall-clock span record (nil when the span
	// layer is disabled). Cleared at finish: the flight recorder's bounded
	// ring owns the finished record, so a long-lived jobs map cannot grow
	// span retention without bound. Atomic because event-stream handlers
	// read it while finalize clears it.
	spans atomic.Pointer[span.Record]
}

// Server is the multi-tenant simulation job service: admission control, a
// bounded worker pool fed round-robin across per-tenant FIFO queues, a
// content-addressed result cache, and (optionally) a durable job journal
// in front of it all.
type Server struct {
	cfg     Config
	cache   *Cache
	reg     *metrics.Registry
	tenants *metrics.Interner

	// The wall-clock observability plane: spans + flight recorder (nil when
	// Config.FlightRecorder < 0), the per-stage/per-job latency histograms
	// it feeds, and the incarnation id that tags this process's log lines.
	flight      *span.Recorder
	outcomes    *metrics.Interner
	stageH      metrics.Histogram
	jobH        metrics.Histogram
	started     time.Time
	incarnation string

	accepted   metrics.Counter
	rejected   metrics.Counter
	shed       metrics.Counter
	deduped    metrics.Counter
	failed     metrics.Counter
	cancelled  metrics.Counter
	panics     metrics.Counter
	retries    metrics.Counter
	replayedC  metrics.Counter
	steps      metrics.Counter
	served     metrics.Counter // per tenant
	hits       metrics.Counter
	misses     metrics.Counter
	evict      metrics.Counter
	subDropped metrics.Counter
	depthG     metrics.Gauge
	runningG   metrics.Gauge
	entriesG   metrics.Gauge
	bytesG     metrics.Gauge
	subsG      metrics.Gauge

	mu          sync.Mutex
	cond        *sync.Cond
	jrnl        *journal
	jobs        map[string]*jobState
	inflight    map[string]*jobState // hash → queued-or-running job
	queues      map[string][]*jobState
	ring        []string // tenant round-robin order
	rr          int
	queued      int
	running     int
	runningBy   map[string]int // tenant → jobs currently on a worker
	nextID      int
	lastEvict   int64
	durs        []float64 // ring of recent job wall durations (seconds)
	durNext     int
	subscribers int
	jrnlAppends int64  // successful journal appends (admit + done markers)
	jrnlFails   int64  // failed journal append attempts
	jrnlLastErr string // most recent journal append error
	failures    []failureNote
	failNext    int
	closed      bool
	killed      bool // simulated kill -9: workers abandon in place
	workersRun  bool
	wg          sync.WaitGroup

	// store is the Storage the default runner hands every run. While jobs
	// are queued or running it holds at most Workers runs' peak; once none
	// has been since idleSince for storageGrace, or at Shutdown, it is
	// dropped for an empty one, and releases counts the drops.
	store     *overd.Storage
	releases  int64
	idleSince time.Time
	idleTimer *time.Timer
}

// storageGrace is how long the server stays idle before it drops what its
// runs left in its Storage.
const storageGrace = 5 * time.Second

// failureNote is one entry of the bounded recent-failure ring surfaced on
// GET /status: enough context to pivot to GET /jobs/{id}/spans.
type failureNote struct {
	ID     string    `json:"id"`
	Tenant string    `json:"tenant"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	At     time.Time `json:"at"`
}

// failureRingCap bounds the /status recent-failure ring.
const failureRingCap = 16

// recordFailureLocked pushes one failed/cancelled job into the ring.
func (s *Server) recordFailureLocked(js *jobState) {
	n := failureNote{ID: js.id, Tenant: js.tenant, Status: js.status, Error: js.errMsg, At: time.Now()}
	if len(s.failures) < failureRingCap {
		s.failures = append(s.failures, n)
		s.failNext = len(s.failures) % failureRingCap
		return
	}
	s.failures[s.failNext] = n
	s.failNext = (s.failNext + 1) % failureRingCap
}

// wallBuckets lay out the service latency histograms: jobs span microsecond
// cache hits to multi-minute solves, so the buckets cover 10µs..300s.
var wallBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 0.5, 1, 2.5, 10, 30, 120, 300,
}

// durWindow is how many recent job durations feed the queue-wait estimate.
const durWindow = 32

// NewServer builds a server (workers not yet started; call Start). With
// Config.JournalDir set it replays the journal first: admitted jobs whose
// results are now cached complete immediately, the rest re-queue in their
// original admission order under their original ids.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.EventWriteTimeout <= 0 {
		cfg.EventWriteTimeout = 10 * time.Second
	}
	if cfg.EventHeartbeat <= 0 {
		cfg.EventHeartbeat = 15 * time.Second
	}
	cfg.Limits = cfg.Limits.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheBytes, cfg.CacheDir),
		reg:       metrics.New(),
		tenants:   metrics.NewInterner(),
		outcomes:  metrics.NewInterner(),
		jobs:      make(map[string]*jobState),
		inflight:  make(map[string]*jobState),
		queues:    make(map[string][]*jobState),
		runningBy: make(map[string]int),
		started:   time.Now(),
		store:     overd.NewStorage(),
	}
	if s.cfg.Runner == nil {
		s.cfg.Runner = func(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error) {
			return runJob(ctx, job, progress, s.storage())
		}
	}
	s.idleTimer = time.AfterFunc(storageGrace, func() { s.releaseIfIdle(time.Now()) })
	s.idleTimer.Stop()
	s.incarnation = fmt.Sprintf("%d-%x", os.Getpid(), s.started.UnixNano())
	if cfg.FlightRecorder >= 0 {
		s.flight = span.NewRecorder(cfg.FlightRecorder)
		s.flight.OnFinish = s.observeFinished
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg.Reset(1)
	g := func(name, help string) metrics.Gauge {
		return s.reg.Gauge(name, metrics.Opts{Help: help, Global: true})
	}
	c := func(name, help string) metrics.Counter {
		return s.reg.Counter(name, metrics.Opts{Help: help, Global: true})
	}
	s.accepted = c("overd_serve_jobs_accepted_total", "jobs admitted (including cache hits and dedups)")
	s.rejected = c("overd_serve_jobs_rejected_total", "jobs refused by admission control (429)")
	s.shed = c("overd_serve_jobs_shed_total", "jobs refused because the estimated queue wait exceeded their deadline (503)")
	s.deduped = c("overd_serve_jobs_deduped_total", "submissions coalesced onto an identical in-flight job")
	s.failed = c("overd_serve_jobs_failed_total", "jobs whose run returned an error")
	s.cancelled = c("overd_serve_jobs_cancelled_total", "jobs cancelled by request or deadline")
	s.panics = c("overd_serve_panics_total", "runner panics caught and isolated by worker supervision")
	s.retries = c("overd_serve_retries_total", "infrastructure-classified failures given their one retry")
	s.replayedC = c("overd_serve_jobs_replayed_total", "journal admits re-queued at startup")
	s.steps = c("overd_serve_solver_steps_total", "solver timesteps actually executed (cache hits add zero)")
	s.served = s.reg.Counter("overd_serve_jobs_served_total", metrics.Opts{
		Help: "completed jobs per tenant (cached results included)", Global: true,
		Labels: []metrics.Label{{Name: "tenant", Namer: s.tenants.Name}},
	})
	s.hits = c("overd_serve_cache_hits_total", "result-cache hits")
	s.misses = c("overd_serve_cache_misses_total", "result-cache misses")
	s.evict = c("overd_serve_cache_evictions_total", "result-cache LRU evictions")
	s.subDropped = c("overd_serve_event_subscribers_dropped_total", "event-stream subscribers dropped for slow or failed writes")
	outcomeL := metrics.Label{Name: "outcome", Namer: s.outcomes.Name}
	s.stageH = s.reg.Histogram("overd_serve_stage_seconds", metrics.Opts{
		Help: "wall-clock seconds per job lifecycle stage (span layer)", Global: true,
		Buckets: wallBuckets,
		Labels: []metrics.Label{
			{Name: "stage", Namer: func(i int) string { return span.Stage(i).String() }},
			outcomeL,
		},
	})
	s.jobH = s.reg.Histogram("overd_serve_job_seconds", metrics.Opts{
		Help:   "end-to-end wall-clock seconds per job, admission to terminal state (span layer)",
		Global: true, Buckets: wallBuckets, Labels: []metrics.Label{outcomeL},
	})
	s.depthG = g("overd_serve_queue_depth", "jobs admitted and waiting for a worker")
	s.runningG = g("overd_serve_jobs_running", "jobs currently on a worker")
	s.entriesG = g("overd_serve_cache_entries", "resident result-cache entries")
	s.bytesG = g("overd_serve_cache_bytes", "resident result-cache bytes")
	s.subsG = g("overd_serve_event_subscribers", "open GET /events streams")

	if cfg.JournalDir != "" {
		jrnl, pending, maxSeq, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.jrnl = jrnl
		s.nextID = maxSeq
		if err := s.replay(pending); err != nil {
			jrnl.close()
			return nil, err
		}
	}
	return s, nil
}

// replay re-admits the journal's unfinished jobs. Runs before Start, so no
// worker races it; it still takes s.mu because journalDoneLocked expects
// it. A replayed job whose hash is now cached — the crash landed between
// the cache write and the done marker — completes on the spot.
func (s *Server) replay(pending []journalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range pending {
		var job Job
		if err := json.Unmarshal(r.Job, &job); err != nil {
			return fmt.Errorf("serve: journal job %s: %v", r.ID, err)
		}
		job.Tenant = r.Tenant
		js := &jobState{
			id: r.ID, hash: job.Hash(), tenant: r.Tenant, job: job,
			seq: r.Seq, replayed: true, admitted: time.Now(),
			events: newEventLog(), done: make(chan struct{}),
		}
		if js.tenant == "" {
			js.tenant = "anonymous"
		}
		s.jobs[js.id] = js
		js.spans.Store(s.flight.StartAt(js.id, js.tenant, job.Balancer, js.admitted))
		rec := js.spans.Load()
		s.replayedC.Add(0, 1)
		js.events.append(Event{Type: "queued"})
		js.events.append(Event{Type: "replayed"})
		ct0 := time.Now()
		art, hit := s.cache.Get(js.hash)
		rec.AddStage(span.StageCache, ct0, time.Now())
		if hit {
			// The crash landed between the cache write and the done marker;
			// the replay completes on the spot.
			rec.SetCache(string(CacheHit))
			js.status = StatusDone
			js.cached = true
			js.art = art
			s.hits.Add(0, 1)
			s.served.Add1(0, s.tenants.ID(js.tenant), 1)
			js.events.append(Event{Type: "done", Cached: true})
			js.events.closeLog()
			close(js.done)
			s.journalDoneLocked(js, StatusDone, "")
			rec.Finish(string(StatusDone))
			js.spans.Store(nil)
			continue
		}
		rec.SetCache(string(CacheMiss))
		js.status = StatusQueued
		s.inflight[js.hash] = js
		if _, known := s.queues[js.tenant]; !known {
			s.ring = append(s.ring, js.tenant)
		}
		s.queues[js.tenant] = append(s.queues[js.tenant], js)
		s.queued++
		s.logEvent(js, "journal-replay", kv{"seq", fmt.Sprintf("%d", js.seq)})
	}
	return nil
}

// observeFinished is the flight recorder's OnFinish hook: every finished
// record feeds the per-stage and end-to-end wall-clock latency histograms,
// labeled by stage and terminal outcome.
func (s *Server) observeFinished(rec *span.Record) {
	out := s.outcomes.ID(rec.Outcome())
	s.jobH.Observe1(0, out, rec.Duration().Seconds())
	for _, sp := range rec.Spans() {
		d := sp.End.Sub(sp.Start).Seconds()
		if d < 0 {
			d = 0 // the wall clock can step backwards; a negative latency only misleads
		}
		s.stageH.Observe2(0, int(sp.Stage), out, d)
	}
}

// Registry exposes the server's own metrics registry (the /metrics page).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Start launches the worker pool. Safe to call once.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workersRun {
		return
	}
	s.workersRun = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown stops admission, wakes idle workers, and waits — up to the
// context's deadline — for queued and running jobs to drain. On a clean
// drain the journal (now holding only terminal markers) is closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.mu.Lock()
		if s.jrnl != nil && !s.killed {
			s.jrnl.close()
			s.jrnl = nil
		}
		s.idleTimer.Stop()
		s.dropStorageLocked()
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStatus classifies what Submit found for a job's content address.
type CacheStatus string

const (
	CacheHit      CacheStatus = "hit"      // served from the result cache
	CacheInflight CacheStatus = "inflight" // identical job already queued/running
	CacheMiss     CacheStatus = "miss"     // fresh work admitted
)

// Submit admits a normalized job (Tenant already resolved). On a cache hit
// the returned job is already done and carries the cached artifacts; on an
// inflight dedup it is the existing job; otherwise it is journaled (when a
// journal is configured), then queued. Deadline-aware shedding runs before
// queueing: a job whose estimated queue wait exceeds its own deadline is
// refused with ErrWontMeetDeadline rather than queued as doomed work.
func (s *Server) Submit(job Job) (*jobState, CacheStatus, error) {
	t0 := time.Now() // root-span start: the instant the job entered the server
	hash := job.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", ErrShuttingDown
	}
	ct0 := time.Now()
	art, hit := s.cache.Get(hash)
	ct1 := time.Now()
	if hit {
		s.hits.Add(0, 1)
		s.accepted.Add(0, 1)
		js := s.newJobLocked(job, hash)
		js.spans.Store(s.flight.StartAt(js.id, js.tenant, job.Balancer, t0))
		rec := js.spans.Load()
		rec.SetCache(string(CacheHit))
		rec.AddStage(span.StageCache, ct0, ct1)
		js.status = StatusDone
		js.cached = true
		js.art = art
		js.events.append(Event{Type: "queued"})
		js.events.append(Event{Type: "done", Cached: true})
		js.events.closeLog()
		close(js.done)
		s.served.Add1(0, s.tenants.ID(js.tenant), 1)
		rec.AddStage(span.StageAdmit, t0, time.Now())
		rec.Finish(string(StatusDone))
		js.spans.Store(nil)
		return js, CacheHit, nil
	}
	if ex, ok := s.inflight[hash]; ok {
		s.deduped.Add(0, 1)
		s.annotate(ex, "dedup", kv{"hash", hash[:12]})
		return ex, CacheInflight, nil
	}
	if s.queued >= s.cfg.QueueDepth {
		s.rejected.Add(0, 1)
		return nil, "", ErrQueueFull{Depth: s.queued, RetryAfter: s.retryAfterLocked()}
	}
	if job.Deadline > 0 {
		if est := s.estQueueWaitLocked(); est > job.Deadline {
			s.shed.Add(0, 1)
			return nil, "", ErrWontMeetDeadline{
				EstWait: est, Deadline: job.Deadline, RetryAfter: s.retryAfterLocked(),
			}
		}
	}
	js := s.newJobLocked(job, hash)
	js.spans.Store(s.flight.StartAt(js.id, js.tenant, job.Balancer, t0))
	rec := js.spans.Load()
	rec.SetCache(string(CacheMiss))
	rec.AddStage(span.StageCache, ct0, ct1)
	if s.jrnl != nil {
		jt0 := time.Now()
		err := s.journalAdmitLocked(js)
		rec.AddStage(span.StageJournal, jt0, time.Now())
		if err != nil {
			delete(s.jobs, js.id)
			rec.AddStage(span.StageAdmit, t0, time.Now())
			rec.Finish("rejected")
			js.spans.Store(nil)
			return nil, "", fmt.Errorf("%w: %v", ErrJournalUnavailable, err)
		}
	}
	s.misses.Add(0, 1)
	s.accepted.Add(0, 1)
	js.status = StatusQueued
	s.inflight[hash] = js
	if _, known := s.queues[js.tenant]; !known {
		s.ring = append(s.ring, js.tenant)
	}
	s.queues[js.tenant] = append(s.queues[js.tenant], js)
	s.queued++
	js.events.append(Event{Type: "queued"})
	rec.AddStage(span.StageAdmit, t0, time.Now())
	s.cond.Signal()
	return js, CacheMiss, nil
}

// journalAdmitLocked makes a job's admission durable. The job JSON is the
// normalized struct minus tenant (which rides in its own field) — unlike
// the canonical form it keeps deadline and max_steps, so a replayed job
// retains its budgets (the wall-clock deadline restarts from replay time;
// the original submission instant died with the process).
func (s *Server) journalAdmitLocked(js *jobState) error {
	j := js.job
	j.Tenant = ""
	b, err := json.Marshal(j)
	if err != nil {
		panic(fmt.Sprintf("serve: journal job marshal: %v", err))
	}
	rec := journalRecord{Type: "admit", Seq: js.seq, ID: js.id, Tenant: js.tenant, Job: b}
	if err := s.jrnl.append(rec); err == nil {
		s.jrnlAppends++
		return nil
	}
	// Journal I/O is infrastructure: one bounded retry, then refuse.
	s.jrnlFails++
	s.retries.Add(0, 1)
	err = s.jrnl.append(rec)
	if err != nil {
		s.jrnlFails++
		s.jrnlLastErr = err.Error()
		s.logEvent(js, "journal-admit-failed", kv{"error", err.Error()})
		return err
	}
	s.jrnlAppends++
	return nil
}

// journalDoneLocked records a job's terminal state. A failure here cannot
// un-finish the job; it means the journal may replay it after the next
// restart (at-least-once in this corner), where the cache check makes the
// re-completion free for done jobs.
func (s *Server) journalDoneLocked(js *jobState, status JobStatus, errMsg string) {
	if s.jrnl == nil || s.killed {
		return
	}
	rec := journalRecord{Type: "done", ID: js.id, Status: status, Error: errMsg}
	if err := s.jrnl.append(rec); err == nil {
		s.jrnlAppends++
		return
	}
	s.jrnlFails++
	s.retries.Add(0, 1)
	if err := s.jrnl.append(rec); err != nil {
		s.jrnlFails++
		s.jrnlLastErr = err.Error()
		s.logEvent(js, "journal-done-failed", kv{"status", string(status)}, kv{"error", err.Error()})
		return
	}
	s.jrnlAppends++
}

// jobID names the job admitted at sequence seq.
func jobID(seq int) string { return fmt.Sprintf("j-%06d", seq) }

// newJobLocked allocates a job record under s.mu.
func (s *Server) newJobLocked(job Job, hash string) *jobState {
	s.nextID++
	js := &jobState{
		id:       jobID(s.nextID),
		hash:     hash,
		tenant:   job.Tenant,
		job:      job,
		seq:      s.nextID,
		admitted: time.Now(),
		events:   newEventLog(),
		done:     make(chan struct{}),
	}
	if js.tenant == "" {
		js.tenant = "anonymous"
	}
	s.jobs[js.id] = js
	return js
}

// Cancel stops a job: a queued job is removed from its queue and finished
// as cancelled on the spot; a running job has its context cancelled and
// finishes as cancelled at the solver's next step boundary. Terminal jobs
// return ErrJobFinished, unknown ids ErrUnknownJob.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	switch js.status {
	case StatusQueued:
		q := s.queues[js.tenant]
		for i, other := range q {
			if other == js {
				s.queues[js.tenant] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		pt0 := time.Now()
		s.queued--
		s.noteIdleLocked()
		delete(s.inflight, js.hash)
		js.status = StatusCancelled
		js.errMsg = "cancelled by request"
		s.cancelled.Add(0, 1)
		s.journalDoneLocked(js, StatusCancelled, js.errMsg)
		js.events.append(Event{Type: "cancelled", Error: js.errMsg})
		s.recordFailureLocked(js)
		publish(js, pt0)
		return StatusCancelled, nil
	case StatusRunning:
		js.cancelReq = true
		s.annotate(js, "cancel-requested")
		if js.cancel != nil {
			js.cancel()
		}
		return StatusRunning, nil
	default:
		return js.status, ErrJobFinished
	}
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	return js, ok
}

// meanDurLocked is the mean of the recent-duration ring; with no history
// yet it assumes one second per job, a deliberately modest guess that
// keeps early Retry-After advice small.
func (s *Server) meanDurLocked() float64 {
	if len(s.durs) == 0 {
		return 1.0
	}
	sum := 0.0
	for _, d := range s.durs {
		sum += d
	}
	return sum / float64(len(s.durs))
}

// recordDurLocked pushes one finished job's wall duration into the ring.
func (s *Server) recordDurLocked(d float64) {
	if len(s.durs) < durWindow {
		s.durs = append(s.durs, d)
		return
	}
	s.durs[s.durNext] = d
	s.durNext = (s.durNext + 1) % durWindow
}

// minEstJobDur floors the per-job duration used for deadline shedding. A
// ring full of near-zero durations (instant cache hits, stub runners)
// would otherwise estimate a zero wait for any backlog and quietly disable
// shedding entirely; no real solve finishes in under a second.
const minEstJobDur = 1.0

// estQueueWaitLocked estimates how long a job admitted now would wait for
// a worker: everything queued ahead of it, spread over the pool, at the
// mean recent duration (floored at minEstJobDur — the floor applies only
// here, so Retry-After advice still tracks the true mean).
func (s *Server) estQueueWaitLocked() float64 {
	mean := s.meanDurLocked()
	if mean < minEstJobDur {
		mean = minEstJobDur
	}
	return mean * float64(s.queued) / float64(s.cfg.Workers)
}

// retryAfterLocked turns the current backlog into honest backoff advice:
// the estimated time for the backlog plus one more job to clear, clamped
// to [1s, 15min].
func (s *Server) retryAfterLocked() int {
	est := s.meanDurLocked() * float64(s.queued+1) / float64(s.cfg.Workers)
	r := int(math.Ceil(est))
	if r < 1 {
		r = 1
	}
	if r > 900 {
		r = 900
	}
	return r
}

// queuePosition estimates how many admitted jobs precede js (by admission
// order; the round-robin scheduler may interleave tenants differently, but
// the number never grows). Returns -1 when js is not queued.
func (s *Server) queuePosition(js *jobState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js.status != StatusQueued {
		return -1
	}
	ahead := 0
	for _, q := range s.queues {
		for _, other := range q {
			if other.seq < js.seq {
				ahead++
			}
		}
	}
	return ahead
}

// dequeue blocks for the next job, rotating fairly across tenants: each
// pop advances the ring, so a tenant flooding its own FIFO cannot starve
// another tenant's single job. The popped job gets its run context here —
// cancellable, deadline-bounded when the job asked for one — so Cancel
// and kill can reach the attempt from outside. Returns nil when the
// server drained and closed (or was killed).
func (s *Server) dequeue() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.killed {
			return nil
		}
		if s.queued > 0 {
			n := len(s.ring)
			for i := 0; i < n; i++ {
				tenant := s.ring[(s.rr+i)%n]
				q := s.queues[tenant]
				if len(q) == 0 {
					continue
				}
				js := q[0]
				s.queues[tenant] = q[1:]
				s.rr = (s.rr + i + 1) % n
				s.queued--
				s.running++
				s.runningBy[js.tenant]++
				js.status = StatusRunning
				js.started = time.Now()
				js.spans.Load().AddStage(span.StageQueue, js.admitted, js.started)
				if js.job.Deadline > 0 {
					// The budget started at admission; only the remainder
					// is available for the run itself.
					rem := js.job.Deadline - time.Since(js.admitted).Seconds()
					if rem < 0 {
						rem = 0
					}
					js.ctx, js.cancel = context.WithTimeout(
						context.Background(), time.Duration(rem*float64(time.Second)))
				} else {
					js.ctx, js.cancel = context.WithCancel(context.Background())
				}
				return js
			}
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// refreshGauges updates the point-in-time gauges before a scrape. The
// virtual-time stamp slot is 0: the server lives on the wall clock, not a
// simulated one.
func (s *Server) refreshGauges() {
	s.mu.Lock()
	queued, running, subs := s.queued, s.running, s.subscribers
	s.mu.Unlock()
	cs := s.cache.Stats()
	s.depthG.Set(0, float64(queued), 0)
	s.runningG.Set(0, float64(running), 0)
	s.entriesG.Set(0, float64(cs.Entries), 0)
	s.bytesG.Set(0, float64(cs.Bytes), 0)
	s.subsG.Set(0, float64(subs), 0)
}

// storage is the Storage the next run draws on.
func (s *Server) storage() *overd.Storage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// noteIdleLocked starts the grace period when the last queued or running
// job leaves: the idle timer fires storageGrace later, unless a newer idle
// stretch moves it on.
func (s *Server) noteIdleLocked() {
	if s.queued > 0 || s.running > 0 {
		return
	}
	s.idleSince = time.Now()
	s.idleTimer.Reset(storageGrace)
}

// releaseIfIdle drops the Storage when, at now, no job has been queued or
// running for storageGrace. The idle timer calls it; so may a test, with a
// now of its choosing.
func (s *Server) releaseIfIdle(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued == 0 && s.running == 0 && now.Sub(s.idleSince) >= storageGrace {
		s.dropStorageLocked()
	}
}

// dropStorageLocked lets go of everything the runs left and starts an empty
// Storage. Runs still holding the old one give back into it and it goes
// when they do.
func (s *Server) dropStorageLocked() {
	s.store = overd.NewStorage()
	s.releases++
}
