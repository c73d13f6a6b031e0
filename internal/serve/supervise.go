package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"overd/internal/span"
)

// Worker supervision: each pool goroutine runs jobs through a recover()
// boundary so a panicking Runner marks its job failed instead of killing
// the daemon. Failures are classified before retrying:
//
//   - infrastructure (a panic, journal I/O): one bounded retry after a
//     fixed deterministic backoff — the environment may have healed;
//   - deterministic (a solver error, a max_steps budget): never retried —
//     the same inputs would fail identically;
//   - cancellation (DELETE, deadline expiry): terminal as "cancelled".

// panicError is a recovered runner panic, sanitized for clients: the
// message survives, the stack goes only to Config.Logf.
type panicError struct {
	msg string
}

func (e *panicError) Error() string { return "runner panic: " + e.msg }

// sanitizePanic renders a recovered value into a short single-line
// message suitable for a client-visible errMsg.
func sanitizePanic(p any) string {
	msg := fmt.Sprintf("%v", p)
	msg = strings.ReplaceAll(msg, "\n", " ")
	const max = 200
	if len(msg) > max {
		msg = msg[:max] + "…"
	}
	return msg
}

// isInfra reports whether an error is infrastructure-classified and so
// worth the single retry.
func isInfra(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// worker is one pool goroutine: dequeue, supervise a run, publish, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		js := s.dequeue()
		if js == nil {
			return
		}
		s.supervise(js)
	}
}

// supervise runs one job: invoke the runner behind the panic boundary,
// retry once on infrastructure failure, then finalize.
func (s *Server) supervise(js *jobState) {
	js.events.append(Event{Type: "start"})
	for attempt := 1; ; attempt++ {
		s.mu.Lock()
		js.attempts = attempt
		s.mu.Unlock()
		et0 := time.Now()
		art, err := s.invoke(js)
		js.spans.Load().AddStage(span.StageExecute, et0, time.Now(),
			span.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
		if err != nil && isInfra(err) && attempt == 1 &&
			js.ctx.Err() == nil && !s.isKilled() {
			s.retries.Add(0, 1)
			js.events.append(Event{Type: "retry", Error: err.Error()})
			s.annotate(js, "retry", kv{"error", err.Error()})
			time.Sleep(s.cfg.RetryBackoff)
			continue
		}
		s.finalize(js, art, err)
		return
	}
}

// invoke runs the Runner behind the panic boundary, under runtime/pprof
// labels: every profile sample and labeled goroutine dump taken while the
// job executes carries its id, tenant and balancer, so a CPU profile of the
// daemon attributes time to jobs without any solver instrumentation.
func (s *Server) invoke(js *jobState) (art *Artifacts, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(0, 1)
			s.logPanic(js, p, debug.Stack())
			art, err = nil, &panicError{msg: sanitizePanic(p)}
		}
	}()
	pprof.Do(js.ctx, pprof.Labels(
		"job_id", js.id, "tenant", js.tenant, "balancer", js.job.Balancer,
	), func(ctx context.Context) {
		art, err = s.cfg.Runner(ctx, js.job, js.events.append)
	})
	return art, err
}

// finalize publishes a finished attempt's outcome: terminal status, result
// cache, journal marker, metrics, events. Under a simulated kill -9 it
// does nothing at all — a dead process publishes nothing — which is what
// makes the journal's replay the only survivor, exactly as after a real
// SIGKILL between a job's last step and its done marker.
func (s *Server) finalize(js *jobState, art *Artifacts, err error) {
	pt0 := time.Now()
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.running--
	s.noteIdleLocked()
	if s.runningBy[js.tenant] <= 1 {
		delete(s.runningBy, js.tenant)
	} else {
		s.runningBy[js.tenant]--
	}
	delete(s.inflight, js.hash)
	js.cancel() // release the deadline timer
	s.recordDurLocked(time.Since(js.started).Seconds())
	switch {
	case err == nil:
		js.status = StatusDone
		js.art = art
		s.steps.Add(0, float64(art.Steps))
		s.served.Add1(0, s.tenants.ID(js.tenant), 1)
		if perr := s.cache.Put(js.hash, art); perr != nil {
			// The result still serves; only persistence degraded.
			js.events.append(Event{Type: "error", Error: "cache store: " + perr.Error()})
		}
		if ev := s.cache.Stats().Evictions; ev > s.lastEvict {
			s.evict.Add(0, float64(ev-s.lastEvict))
			s.lastEvict = ev
		}
		s.journalDoneLocked(js, StatusDone, "")
		js.events.append(Event{Type: "done", Steps: art.Steps})
	case js.cancelReq || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		js.status = StatusCancelled
		js.errMsg = cancelReason(js, err)
		s.cancelled.Add(0, 1)
		s.journalDoneLocked(js, StatusCancelled, js.errMsg)
		js.events.append(Event{Type: "cancelled", Error: js.errMsg})
		s.recordFailureLocked(js)
	default:
		js.status = StatusFailed
		js.errMsg = err.Error()
		s.failed.Add(0, 1)
		s.journalDoneLocked(js, StatusFailed, js.errMsg)
		js.events.append(Event{Type: "error", Error: js.errMsg})
		s.recordFailureLocked(js)
	}
	s.mu.Unlock()
	publish(js, pt0)
}

// publish ends a finished job: the publish stage from pt0 as the last child
// span, then the root, and the record moves to the flight recorder's ring
// (feeding the latency histograms via OnFinish); clearing js.spans hands
// retention to the bounded ring. Only then do the event log and done close,
// so whoever sees the job end reads a finished record from GET
// /jobs/{id}/spans.
func publish(js *jobState, pt0 time.Time) {
	rec := js.spans.Load()
	rec.AddStage(span.StagePublish, pt0, time.Now())
	rec.Finish(string(js.status))
	js.spans.Store(nil)
	js.events.closeLog()
	close(js.done)
}

// cancelReason explains a cancellation in the client-visible errMsg.
func cancelReason(js *jobState, err error) string {
	switch {
	case js.cancelReq:
		return "cancelled by request"
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Sprintf("deadline of %gs exceeded", js.job.Deadline)
	default:
		return err.Error()
	}
}

// isKilled reports whether the simulated kill -9 fired.
func (s *Server) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// kill simulates `kill -9` for tests: admission stops, every running
// attempt's context is cancelled so its goroutine unwinds, and workers
// abandon their jobs in place — no status update, no cache write, no
// journal marker, no events — because a SIGKILL'd process publishes
// nothing. The journal file is closed as the kernel would close it: with
// whatever was already fsync'd. A fresh NewServer against the same
// directories is the "restart".
func (s *Server) kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.closed = true
	for _, js := range s.jobs {
		if js.status == StatusRunning && js.cancel != nil {
			js.cancel()
		}
	}
	if s.jrnl != nil {
		s.jrnl.close()
		s.jrnl = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
