package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// journalServer builds a journaled server around a stub runner without the
// httptest scaffolding (these tests drive Submit/kill directly).
func journalServer(t *testing.T, jdir, cdir string, runner Runner) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		RetryBackoff: time.Millisecond, Runner: runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitSteps(t *testing.T, s *Server, steps int) *jobState {
	t.Helper()
	j, err := Job{Case: "airfoil", Steps: steps}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	js, cache, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	if cache == CacheInflight {
		t.Fatalf("unexpected dedup for steps=%d", steps)
	}
	return js
}

// TestJournalReplayAfterKill is the tentpole's crash-tolerance pin: a
// simulated kill -9 with one job done, one running and one queued loses
// nothing — the restart serves the done job from cache and re-runs the
// other two under their original ids, byte-identically.
func TestJournalReplayAfterKill(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	block := make(chan struct{})
	running := make(chan struct{}, 8)
	var mu sync.Mutex
	var invoked []int
	runner := func(ctx context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		mu.Lock()
		invoked = append(invoked, job.Steps)
		mu.Unlock()
		if job.Steps >= 2 {
			running <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return art(fmt.Sprintf("steps-%d", job.Steps), job.Steps), nil
	}

	s1 := journalServer(t, jdir, cdir, runner)
	s1.Start()
	j1 := submitSteps(t, s1, 1) // completes immediately
	select {
	case <-j1.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never finished")
	}
	j2 := submitSteps(t, s1, 2) // blocks on the runner
	<-running
	j3 := submitSteps(t, s1, 3) // stays queued behind it
	s1.kill()

	// The dead server published nothing for jobs 2 and 3.
	s1.mu.Lock()
	if j2.status != StatusRunning || j3.status != StatusQueued {
		t.Fatalf("post-kill states: %s/%s, want running/queued (a dead process updates nothing)",
			j2.status, j3.status)
	}
	s1.mu.Unlock()

	// Model the real-kill window between the artifact cache write and the
	// done marker: an admit whose artifacts are already cached. Replay must
	// serve it from cache immediately instead of re-running it.
	jb := j1.job
	jb.Tenant = ""
	jbJSON, _ := json.Marshal(jb)
	rec, _ := json.Marshal(journalRecord{Type: "admit", Seq: 4, ID: "j-000004", Tenant: j1.tenant, Job: jbJSON})
	wal, err := os.OpenFile(filepath.Join(jdir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write(append(rec, '\n')); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	// Restart on the same directories: the done-marked job 1 is compacted
	// away, the cached admit completes at replay time, and jobs 2 and 3
	// re-queue under their original ids, in admission order.
	s2 := journalServer(t, jdir, cdir, runner)
	if _, stale := s2.Job(j1.id); stale {
		t.Errorf("done-marked job %s survived compaction", j1.id)
	}
	r1, ok := s2.Job("j-000004")
	if !ok {
		t.Fatal("cached admit lost across restart")
	}
	s2.mu.Lock()
	if r1.status != StatusDone || !r1.cached || !r1.replayed {
		t.Errorf("replayed cached job: status=%s cached=%v replayed=%v", r1.status, r1.cached, r1.replayed)
	}
	s2.mu.Unlock()
	close(block) // let the re-run jobs finish
	s2.Start()
	for _, orig := range []*jobState{j2, j3} {
		r, ok := s2.Job(orig.id)
		if !ok {
			t.Fatalf("job %s lost across restart", orig.id)
		}
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("replayed job %s never finished", orig.id)
		}
		s2.mu.Lock()
		if r.status != StatusDone || !r.replayed {
			t.Errorf("replayed job %s: status=%s replayed=%v", orig.id, r.status, r.replayed)
		}
		if string(r.art.Tables) != string(art(fmt.Sprintf("steps-%d", orig.job.Steps), orig.job.Steps).Tables) {
			t.Errorf("replayed job %s artifacts differ from the oracle", orig.id)
		}
		s2.mu.Unlock()
	}
	if got := s2.reg.CounterValue("overd_serve_jobs_replayed_total", 0); got != 3 {
		t.Errorf("jobs_replayed_total = %g, want 3", got)
	}
	// New ids keep counting past the journal's high-water mark: no reuse.
	j4 := submitSteps(t, s2, 2)
	for _, old := range []string{j1.id, j2.id, j3.id, "j-000004"} {
		if j4.id == old {
			t.Fatalf("restart reused job id %s", old)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A third start finds a fully-compacted journal: nothing pending.
	s3 := journalServer(t, jdir, cdir, runner)
	if got := s3.reg.CounterValue("overd_serve_jobs_replayed_total", 0); got != 0 {
		t.Errorf("third start replayed %g jobs, want 0", got)
	}
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel3()
	s3.Start()
	if err := s3.Shutdown(ctx3); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailTolerated: a crash mid-append may leave one partial
// final line; replay drops exactly that and keeps everything fsync'd
// before it. Corruption anywhere else refuses to load.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	adm := func(seq int) string {
		job, _ := json.Marshal(Job{Case: "airfoil", Steps: seq})
		rec, _ := json.Marshal(journalRecord{Type: "admit", Seq: seq, ID: fmt.Sprintf("j-%06d", seq), Tenant: "t", Job: job})
		return string(rec) + "\n"
	}
	body := `{"type":"meta","seq":9}` + "\n" + adm(1) + adm(2) + `{"type":"admit","seq":3,"id":"j-0000`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	pending, maxSeq, err := replayJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(pending) != 2 || pending[0].ID != "j-000001" || pending[1].ID != "j-000002" {
		t.Fatalf("pending = %+v, want the two whole admits in order", pending)
	}
	if maxSeq != 9 {
		t.Errorf("maxSeq = %d, want 9 (meta record wins)", maxSeq)
	}

	// The same partial line in the middle is corruption, not a torn tail.
	body = `{"type":"meta","seq":9}` + "\n" + `{"type":"admit","seq":1,"id":"j-00` + "\n" + adm(2)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayJournal(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("mid-file corruption not refused: %v", err)
	}
}

// TestJournalCancelledJobsStayCancelled: a cancelled queued job gets its
// terminal marker and is NOT resurrected by a restart.
func TestJournalCancelledJobsStayCancelled(t *testing.T) {
	jdir := t.TempDir()
	block := make(chan struct{})
	running := make(chan struct{}, 8)
	runner := func(ctx context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		running <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return art("x", job.Steps), nil
	}
	s1 := journalServer(t, jdir, "", runner)
	s1.Start()
	submitSteps(t, s1, 1)
	<-running
	j2 := submitSteps(t, s1, 2)
	if _, err := s1.Cancel(j2.id); err != nil {
		t.Fatal(err)
	}
	s1.kill()

	s2 := journalServer(t, jdir, "", runner)
	if _, resurrected := s2.Job(j2.id); resurrected {
		t.Error("cancelled job came back from the journal")
	}
	// Job 1 (killed mid-run, no cache) is the only replay.
	if got := s2.reg.CounterValue("overd_serve_jobs_replayed_total", 0); got != 1 {
		t.Errorf("jobs_replayed_total = %g, want 1", got)
	}
	close(block) // let the replayed job finish before draining
	s2.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalReplay decodes arbitrary bytes, and a torn copy of them, as a
// journal. Decoding never panics; an accepted journal tolerated at most its
// last line unparsed, names every pending job by its own sequence, at most
// once and at or below the sequence the next id is drawn after; and cut
// anywhere before its last line, as a crash mid-append would leave it, it is
// accepted still.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		pending, maxSeq, err := decodeJournal(data)
		if err != nil {
			return
		}
		lines := bytes.Split(data, []byte("\n"))
		for i, line := range lines[:len(lines)-1] {
			var r journalRecord
			if len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, &r) != nil {
				t.Fatalf("line %d of %d is torn, yet the journal was accepted", i+1, len(lines))
			}
		}
		seen := map[string]bool{}
		for _, r := range pending {
			if seen[r.ID] {
				t.Fatalf("job %s replayed twice", r.ID)
			}
			seen[r.ID] = true
			if r.Seq <= 0 || r.Seq > maxSeq || r.ID != jobID(r.Seq) {
				t.Fatalf("pending %s at sequence %d (max %d): the next ids could reuse it", r.ID, r.Seq, maxSeq)
			}
		}
		whole := bytes.LastIndexByte(data, '\n') + 1
		if _, _, err := decodeJournal(data[:int(cut)%(whole+1)]); err != nil {
			t.Fatalf("a torn copy of an accepted journal is refused: %v", err)
		}
	})
}
