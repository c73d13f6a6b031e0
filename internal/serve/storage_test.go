package serve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"overd"
	"overd/internal/core"
	"overd/internal/trace"
)

// storageJobs is the mixed sequence one server runs on one Storage: worlds
// of every size the service sees, the three cases, a crash that restarts on
// fewer ranks, a job that regenerates a paper table, and a job whose runner
// panics.
var storageJobs = []string{
	`{"case":"airfoil","nodes":4,"steps":2,"scale":0.05}`,
	`{"case":"storesep","nodes":16,"steps":2,"scale":0.05}`,
	`{"case":"airfoil","nodes":6,"steps":2,"scale":0.05}`,
	`{"case":"deltawing","nodes":8,"steps":1,"scale":0.03}`,
	`{"case":"airfoil","nodes":6,"steps":4,"scale":0.05,"faults":{"crashes":[{"rank":2,"step":3}]},"checkpoint_every":2}`,
	`{"case":"airfoil","nodes":8,"steps":2,"scale":0.05}`,
	`{"case":"airfoil","nodes":4,"steps":2,"scale":0.05,"tables":["1"]}`,
	`{"case":"airfoil","nodes":5,"steps":2,"scale":0.05}`, // the runner panics
}

// storageCancelled is cancelled on its first step, mid-run, before the rest.
const storageCancelled = `{"case":"airfoil","nodes":8,"steps":400,"scale":0.05}`

func mustParseJob(t *testing.T, body string) Job {
	t.Helper()
	j, err := ParseJob([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// The nil-Storage artifacts of storageJobs, made once for every test that
// compares against them.
var (
	storageWantOnce sync.Once
	storageWant     []*Artifacts
	storageWantErr  error
)

func storageWants(t *testing.T) []*Artifacts {
	t.Helper()
	storageWantOnce.Do(func() {
		for _, body := range storageJobs[:len(storageJobs)-1] {
			j, err := ParseJob([]byte(body))
			if err == nil {
				var a *Artifacts
				a, err = RunJob(context.Background(), j, nil)
				storageWant = append(storageWant, a)
			}
			if err != nil {
				storageWantErr = err
				return
			}
		}
	})
	if storageWantErr != nil {
		t.Fatal(storageWantErr)
	}
	return storageWant
}

// poisonEncoders fills the event buffers and the scratch of every encoder
// st holds with garbage, as a run that left them dirty would.
func poisonEncoders(st *overd.Storage) {
	var encs []*core.Encoder
	for n := st.Held().Recorders; n > 0; n-- {
		e := st.GetEncoder()
		e.Rec.Reset(3)
		for r := 0; r < 3; r++ {
			for i := 0; i < 4096; i++ {
				e.Rec.Buf(r).Emit(trace.Event{Kind: 200, Rank: -7, Peer: 1 << 30, Flow: 0xdead, Start: -1, Dur: 1e300})
			}
			e.Rec.SetFinalClock(r, 1e9)
		}
		e.Rec.SetWindow(-5, 5)
		e.Scratch = bytes.Repeat([]byte(`}"\x`), 1+cap(e.Scratch)/4)
		encs = append(encs, e)
	}
	for _, e := range encs {
		st.PutEncoder(e)
	}
}

// One server's runs share one Storage, whatever they left in it — a
// cancelled run, a crashed world, a sweep of a paper table, a panic, and
// encoders whose recorders and scratch were filled with garbage between
// jobs — and every artifact of every job is the byte of RunJob's with no
// Storage, at GOMAXPROCS 1 and 4 (run under -race in CI).
func TestServeStorageBitIdentical(t *testing.T) {
	want := storageWants(t)
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, err := NewServer(Config{Workers: 2, RetryBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			real := s.cfg.Runner
			s.cfg.Runner = func(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error) {
				if job.Nodes == 5 {
					panic("stub runner")
				}
				poisonEncoders(s.storage())
				return real(ctx, job, progress)
			}
			s.Start()
			defer s.Shutdown(context.Background())

			cj, _, err := s.Submit(mustParseJob(t, storageCancelled))
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool {
				evs, _, _ := cj.events.from(0)
				for _, e := range evs {
					if e.Type == "step" {
						return true
					}
				}
				return false
			}, "the long job's first step")
			if _, err := s.Cancel(cj.id); err != nil {
				t.Fatal(err)
			}
			<-cj.done

			jobs := make([]*jobState, len(storageJobs))
			for i, body := range storageJobs {
				if jobs[i], _, err = s.Submit(mustParseJob(t, body)); err != nil {
					t.Fatal(err)
				}
			}
			for i, js := range jobs {
				<-js.done
				s.mu.Lock()
				status, got := js.status, js.art
				s.mu.Unlock()
				if i == len(jobs)-1 {
					if status != StatusFailed {
						t.Errorf("GOMAXPROCS %d: panicking job ended %s, want failed", procs, status)
					}
					continue
				}
				if status != StatusDone {
					t.Fatalf("GOMAXPROCS %d: %s ended %s: %s", procs, storageJobs[i], status, js.errMsg)
				}
				w := want[i]
				if !bytes.Equal(got.Tables, w.Tables) || !bytes.Equal(got.Trace, w.Trace) ||
					!bytes.Equal(got.Metrics, w.Metrics) || !bytes.Equal(got.Chrome, w.Chrome) || got.Steps != w.Steps {
					t.Errorf("GOMAXPROCS %d: %s through the server's Storage differs from RunJob with none", procs, storageJobs[i])
				}
			}
			if h := s.storage().Held(); h.Kits == 0 || h.Recorders == 0 || h.ScratchBytes == 0 {
				t.Errorf("GOMAXPROCS %d: the server's Storage holds %+v: its runs did not draw on it", procs, h)
			}
			s.mu.Lock()
			cstatus := cj.status
			s.mu.Unlock()
			if cstatus != StatusCancelled {
				t.Errorf("GOMAXPROCS %d: the long job ended %s, want cancelled", procs, cstatus)
			}
		}()
	}
}

// An idle server drops what its runs left, and /status says so; a busy one,
// or one idle for less than the grace period, keeps it.
func TestServeStorageIdleRelease(t *testing.T) {
	hold := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1})
	real := s.cfg.Runner
	s.cfg.Runner = func(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error) {
		if job.Steps == 3 {
			<-hold
		}
		return real(ctx, job, progress)
	}
	_, v := postJob(t, ts, `{"case":"airfoil","nodes":4,"steps":1,"scale":0.05}`, "")
	waitDone(t, ts, v.ID)
	st := getStatus(t, ts).Storage
	if st.SlabBytes == 0 || st.Kits == 0 || st.Recorders != 1 || st.ScratchBytes == 0 || st.Releases != 0 {
		t.Fatalf("after one run /status.storage = %+v, want a slab, a kit, a recorder, a scratch and no release", st)
	}

	s.releaseIfIdle(time.Now())
	_, v = postJob(t, ts, `{"case":"airfoil","nodes":4,"steps":3,"scale":0.05}`, "")
	waitFor(t, func() bool { return getStatus(t, ts).Running.Total == 1 }, "the held job to start")
	s.releaseIfIdle(time.Now().Add(time.Hour))
	if st := getStatus(t, ts).Storage; st.Releases != 0 || st.Kits == 0 {
		t.Fatalf("released while too briefly idle or busy: /status.storage = %+v", st)
	}
	close(hold)
	waitDone(t, ts, v.ID)

	s.releaseIfIdle(time.Now().Add(storageGrace))
	if st := getStatus(t, ts).Storage; st.SlabBytes != 0 || st.Kits != 0 || st.Recorders != 0 || st.ScratchBytes != 0 || st.Releases != 1 {
		t.Fatalf("after the grace period /status.storage = %+v, want empty and one release", st)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.statusSnapshot().Storage; st.Releases != 2 {
		t.Errorf("Shutdown did not drop the Storage: /status.storage = %+v", st)
	}
}

// A miss that finds the server's Storage warm allocates at most 40 % of a
// cold one: the world slab and the per-rank kit are recycled, and the
// Chrome trace is encoded in place.
func TestServeWarmMissAllocatesLess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the byte counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job := mustParseJob(t, `{"case":"airfoil","nodes":6,"steps":3,"scale":0.1}`)
	alloc := func(st *overd.Storage) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := runJob(context.Background(), job, nil, st); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	cold := alloc(nil)
	st := overd.NewStorage()
	alloc(st)
	warm := alloc(st)
	t.Logf("cold miss %d bytes, warm %d (%.0f %%)", cold, warm, 100*float64(warm)/float64(cold))
	if 10*warm > 4*cold {
		t.Errorf("warm miss allocated %d bytes, more than 40 %% of a cold one's %d", warm, cold)
	}
}

// Whoever sees a job end — its event stream closing — reads a finished span
// record on the next GET /jobs/{id}/spans: done, failed, cancelled while
// queued and cancelled while running alike.
func TestSpansFinishedWhenStreamEnds(t *testing.T) {
	hold := make(chan struct{})
	stub := func(ctx context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		switch job.Steps {
		case 2:
			return nil, errors.New("solver diverged")
		case 3:
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return art("ok", job.Steps), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: stub})
	streamThenSpans := func(id, outcome string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		_, err = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code, v := getSpans(t, ts, id); code != 200 || !v.Finished || v.Outcome != outcome {
			t.Errorf("job %s: spans right after its stream ended: %d finished=%v outcome %q, want %s",
				id, code, v.Finished, v.Outcome, outcome)
		}
	}
	_, done := postJob(t, ts, `{"case":"airfoil","steps":1}`, "")
	streamThenSpans(done.ID, "done")
	_, failed := postJob(t, ts, `{"case":"airfoil","steps":2}`, "")
	streamThenSpans(failed.ID, "failed")
	_, running := postJob(t, ts, `{"case":"airfoil","steps":3}`, "")
	_, queued := postJob(t, ts, `{"case":"airfoil","steps":4}`, "")
	waitFor(t, func() bool { return getStatus(t, ts).Running.Total == 1 }, "the held job to start")
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	streamThenSpans(queued.ID, "cancelled")
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	streamThenSpans(running.ID, "cancelled")
	close(hold)
}
