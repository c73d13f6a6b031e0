package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// spanViewResp mirrors the span.View JSON for decoding in tests.
type spanViewResp struct {
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	Balancer        string  `json:"balancer"`
	Outcome         string  `json:"outcome"`
	Cache           string  `json:"cache"`
	Finished        bool    `json:"finished"`
	DurationSeconds float64 `json:"duration_seconds"`
	Spans           []struct {
		Stage           string            `json:"stage"`
		Start           time.Time         `json:"start"`
		DurationSeconds float64           `json:"duration_seconds"`
		Attrs           map[string]string `json:"attrs"`
	} `json:"spans"`
	Logs []struct {
		Text string `json:"text"`
	} `json:"logs"`
}

func getSpans(t *testing.T, ts *httptest.Server, id string) (int, spanViewResp) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v spanViewResp
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding span view: %v", err)
		}
	}
	return resp.StatusCode, v
}

// statusResp mirrors the GET /status document for decoding in tests.
type statusResp struct {
	Service       string  `json:"service"`
	Incarnation   string  `json:"incarnation"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Draining      bool    `json:"draining"`
	Queue         struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Running struct {
		Total    int            `json:"total"`
		ByTenant map[string]int `json:"by_tenant"`
	} `json:"running"`
	Jobs  map[string]float64 `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Journal *struct {
		Open    bool  `json:"open"`
		Appends int64 `json:"appends"`
	} `json:"journal"`
	Storage struct {
		SlabBytes    int64 `json:"slab_bytes"`
		Kits         int   `json:"kits"`
		Recorders    int   `json:"recorders"`
		ScratchBytes int64 `json:"scratch_bytes"`
		Releases     int64 `json:"releases"`
	} `json:"storage"`
	FlightRecorder struct {
		Enabled  bool `json:"enabled"`
		Resident int  `json:"resident"`
		Capacity int  `json:"capacity"`
	} `json:"flight_recorder"`
	RecentFailures []struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
		Status string `json:"status"`
		Error  string `json:"error"`
	} `json:"recent_failures"`
}

func getStatus(t *testing.T, ts *httptest.Server) statusResp {
	t.Helper()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: %d", resp.StatusCode)
	}
	var v statusResp
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	return v
}

// TestSpanLifecycleEndToEnd runs one real job and checks that its span
// record tells the whole story: admit → queue → execute → publish, cache
// miss, outcome done, every duration non-negative, spans sorted by start.
func TestSpanLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, `{"case":"airfoil","nodes":4,"steps":2,"scale":0.05}`, "acme")
	waitDone(t, ts, v.ID)

	code, sv := getSpans(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("GET spans: %d", code)
	}
	if sv.ID != v.ID || sv.Tenant != "acme" {
		t.Errorf("record identity = (%q, %q), want (%q, acme)", sv.ID, sv.Tenant, v.ID)
	}
	if !sv.Finished || sv.Outcome != "done" {
		t.Errorf("finished=%v outcome=%q, want finished done", sv.Finished, sv.Outcome)
	}
	if sv.Cache != "miss" {
		t.Errorf("cache disposition %q, want miss", sv.Cache)
	}
	if sv.DurationSeconds < 0 {
		t.Errorf("root duration %g < 0", sv.DurationSeconds)
	}
	got := make(map[string]int)
	for i, sp := range sv.Spans {
		got[sp.Stage]++
		if sp.DurationSeconds < 0 {
			t.Errorf("span %s duration %g < 0", sp.Stage, sp.DurationSeconds)
		}
		if i > 0 && sp.Start.Before(sv.Spans[i-1].Start) {
			t.Errorf("spans not sorted by start at index %d", i)
		}
	}
	for _, stage := range []string{"admit", "cache-lookup", "queue", "execute", "publish"} {
		if got[stage] == 0 {
			t.Errorf("no %s span in %v", stage, got)
		}
	}
	// The execute span carries its attempt number.
	for _, sp := range sv.Spans {
		if sp.Stage == "execute" && sp.Attrs["attempt"] != "1" {
			t.Errorf("execute attempt attr = %q, want 1", sp.Attrs["attempt"])
		}
	}

	// OnFinish fed the wall-clock histograms: both families expose samples.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`overd_serve_stage_seconds_count{stage="execute",outcome="done"}`,
		`overd_serve_job_seconds_count{outcome="done"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStatusOverview checks the GET /status shape: identity, load, flight
// recorder residency, lifetime counters and the recent-failure ring.
func TestStatusOverview(t *testing.T) {
	stub := func(_ context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		if job.Steps == 3 {
			return nil, fmt.Errorf("solver diverged")
		}
		return art("s", 8), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: t.TempDir(), Runner: stub})

	_, ok := postJob(t, ts, `{"case":"airfoil","steps":2}`, "acme")
	waitDone(t, ts, ok.ID)
	_, bad := postJob(t, ts, `{"case":"airfoil","steps":3}`, "acme")
	waitDone(t, ts, bad.ID)

	// A job's terminal status is published before its span record reaches
	// the flight recorder, so the second record may still be on its way.
	st := getStatus(t, ts)
	for deadline := time.Now().Add(20 * time.Second); st.FlightRecorder.Resident != 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		st = getStatus(t, ts)
	}
	if st.Service != "overd-job-service" {
		t.Errorf("service = %q", st.Service)
	}
	if st.Incarnation == "" {
		t.Error("incarnation is empty")
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptime %g < 0", st.UptimeSeconds)
	}
	if st.Workers != 1 || st.Draining {
		t.Errorf("workers=%d draining=%v", st.Workers, st.Draining)
	}
	if st.Queue.Capacity <= 0 {
		t.Errorf("queue capacity %d", st.Queue.Capacity)
	}
	if got := st.Jobs["accepted"]; got != 2 {
		t.Errorf("jobs.accepted = %g, want 2", got)
	}
	if got := st.Jobs["failed"]; got != 1 {
		t.Errorf("jobs.failed = %g, want 1", got)
	}
	if st.Journal == nil || !st.Journal.Open || st.Journal.Appends < 2 {
		t.Errorf("journal status = %+v, want open with >= 2 appends", st.Journal)
	}
	if !st.FlightRecorder.Enabled || st.FlightRecorder.Capacity != 64 {
		t.Errorf("flight recorder = %+v, want enabled cap 64", st.FlightRecorder)
	}
	if st.FlightRecorder.Resident != 2 {
		t.Errorf("flight resident = %d, want 2", st.FlightRecorder.Resident)
	}
	if len(st.RecentFailures) != 1 {
		t.Fatalf("recent failures = %+v, want exactly the failed job", st.RecentFailures)
	}
	f := st.RecentFailures[0]
	if f.ID != bad.ID || f.Status != "failed" || !strings.Contains(f.Error, "solver diverged") {
		t.Errorf("failure note = %+v", f)
	}
}

// TestFlightRecorderEviction bounds retention: with a 2-slot ring, the
// third finished job evicts the first, whose spans URL then answers 410.
func TestFlightRecorderEviction(t *testing.T) {
	stub := func(_ context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		return art("e", 4), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, FlightRecorder: 2, Runner: stub})
	var ids []string
	for steps := 2; steps <= 4; steps++ {
		_, v := postJob(t, ts, fmt.Sprintf(`{"case":"airfoil","steps":%d}`, steps), "")
		waitDone(t, ts, v.ID)
		ids = append(ids, v.ID)
	}
	if code, _ := getSpans(t, ts, ids[0]); code != http.StatusGone {
		t.Errorf("evicted job spans: %d, want 410", code)
	}
	for _, id := range ids[1:] {
		if code, sv := getSpans(t, ts, id); code != http.StatusOK || !sv.Finished {
			t.Errorf("resident job %s spans: %d finished=%v", id, code, sv.Finished)
		}
	}
	if st := getStatus(t, ts); st.FlightRecorder.Resident != 2 || st.FlightRecorder.Capacity != 2 {
		t.Errorf("flight recorder = %+v, want 2/2", st.FlightRecorder)
	}
}

// TestSpansDisabled turns the layer off (FlightRecorder -1): jobs still
// run, the spans route 404s, and /status reports the layer disabled.
func TestSpansDisabled(t *testing.T) {
	stub := func(_ context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		return art("d", 4), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, FlightRecorder: -1, Runner: stub})
	_, v := postJob(t, ts, `{"case":"airfoil","steps":2}`, "")
	if got := waitDone(t, ts, v.ID); got.Status != "done" {
		t.Fatalf("job with layer disabled: %+v", got)
	}
	if code, _ := getSpans(t, ts, v.ID); code != http.StatusNotFound {
		t.Errorf("spans with layer disabled: %d, want 404", code)
	}
	if st := getStatus(t, ts); st.FlightRecorder.Enabled {
		t.Error("/status reports flight recorder enabled")
	}
}

// TestSpansCacheHitAndUnknown covers the instant-finish path (a content-
// address hit never queues, so its record is admit+cache-lookup only) and
// the unknown-id 404.
func TestSpansCacheHitAndUnknown(t *testing.T) {
	stub := func(_ context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		return art("h", 4), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stub})
	_, first := postJob(t, ts, `{"case":"airfoil","steps":2}`, "")
	waitDone(t, ts, first.ID)
	resp, second := postJob(t, ts, `{"case":"airfoil","steps":2}`, "")
	if resp.StatusCode != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("second POST: %d cache=%q, want 200 hit", resp.StatusCode, second.Cache)
	}
	code, sv := getSpans(t, ts, second.ID)
	if code != http.StatusOK {
		t.Fatalf("hit job spans: %d", code)
	}
	if !sv.Finished || sv.Outcome != "done" || sv.Cache != "hit" {
		t.Errorf("hit record = finished=%v outcome=%q cache=%q", sv.Finished, sv.Outcome, sv.Cache)
	}
	for _, sp := range sv.Spans {
		if sp.Stage == "execute" || sp.Stage == "queue" {
			t.Errorf("cache-hit record has a %s span", sp.Stage)
		}
	}
	if code, _ := getSpans(t, ts, "j-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job spans: %d, want 404", code)
	}
}

// TestEventsSeqAndHeartbeat subscribes to a deliberately idle job with a
// short heartbeat interval: the stream must carry per-subscriber monotonic
// seq numbers, synthesize heartbeats while idle, and never store them (a
// post-hoc subscriber replays the log without any heartbeat lines).
func TestEventsSeqAndHeartbeat(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		select {
		case <-release:
			return art("b", 4), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stub, EventHeartbeat: 20 * time.Millisecond})
	_, v := postJob(t, ts, `{"case":"airfoil","steps":2}`, "")

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.AfterFunc(150*time.Millisecond, func() { close(release) })

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	heartbeats := 0
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d — not per-subscriber monotonic", i, e.Seq)
		}
		if e.Type == "heartbeat" {
			heartbeats++
		}
	}
	if heartbeats == 0 {
		t.Error("no heartbeat on a >=150ms idle stream with a 20ms interval")
	}
	if last := events[len(events)-1]; last.Type != "done" {
		t.Errorf("stream ended with %q, want done", last.Type)
	}

	// A late subscriber replays the stored log: no heartbeats in it, and
	// its own seq numbering restarts at 0.
	resp2, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var replay []Event
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var e Event
		if err := json.Unmarshal(sc2.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		replay = append(replay, e)
	}
	for i, e := range replay {
		if e.Type == "heartbeat" {
			t.Error("heartbeat leaked into the stored event log")
		}
		if e.Seq != i {
			t.Fatalf("replay event %d has seq %d", i, e.Seq)
		}
	}
	if len(replay) != len(events)-heartbeats {
		t.Errorf("replay has %d events, want %d (live minus heartbeats)",
			len(replay), len(events)-heartbeats)
	}

	// Both subscriber windows landed as stream spans on the record.
	_, sv := getSpans(t, ts, v.ID)
	streams := 0
	for _, sp := range sv.Spans {
		if sp.Stage == "stream" {
			streams++
			if sp.Attrs["fate"] != "completed" {
				t.Errorf("stream span fate = %q, want completed", sp.Attrs["fate"])
			}
		}
	}
	if streams != 2 {
		t.Errorf("stream spans = %d, want 2 (one per subscriber)", streams)
	}
}

// TestStructuredLogCorrelation panics a runner and checks the flight
// record carries the correlated key=value line (stackless) while the sink
// still gets the full stack (supervise_test.go pins that separately).
func TestStructuredLogCorrelation(t *testing.T) {
	calls := 0
	stub := func(_ context.Context, job Job, _ func(Event)) (*Artifacts, error) {
		calls++
		if calls == 1 {
			panic("kaboom")
		}
		return nil, fmt.Errorf("deterministic failure")
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: stub, RetryBackoff: time.Millisecond})
	_, v := postJob(t, ts, `{"case":"airfoil","steps":2}`, "acme")
	waitDone(t, ts, v.ID)

	_, sv := getSpans(t, ts, v.ID)
	var panicLine, retryLine string
	for _, l := range sv.Logs {
		if strings.Contains(l.Text, "event=panic") {
			panicLine = l.Text
		}
		if strings.Contains(l.Text, "event=retry") {
			retryLine = l.Text
		}
	}
	if panicLine == "" {
		t.Fatalf("no event=panic line in record logs: %+v", sv.Logs)
	}
	for _, want := range []string{"job_id=" + v.ID, "tenant=acme", "incarnation="} {
		if !strings.Contains(panicLine, want) {
			t.Errorf("panic line %q missing %q", panicLine, want)
		}
	}
	if strings.Contains(panicLine, "goroutine") {
		t.Error("stack leaked into the span-correlated log line")
	}
	if retryLine == "" {
		t.Errorf("no event=retry line in record logs: %+v", sv.Logs)
	}
	// Two execute spans: the panicked attempt and its retry.
	executes := 0
	for _, sp := range sv.Spans {
		if sp.Stage == "execute" {
			executes++
		}
	}
	if executes != 2 {
		t.Errorf("execute spans = %d, want 2 (attempt + retry)", executes)
	}
}

// TestMergedChromeTrace fetches ?format=chrome for a real job and re-parses
// the merged document: solver virtual time on pid 0, service wall clock on
// pid 1, both present and non-negative.
func TestMergedChromeTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, `{"case":"airfoil","nodes":4,"steps":1,"scale":0.05}`, "")
	waitDone(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/spans?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET spans?format=chrome: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("merged chrome trace does not re-parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("merged trace has no events")
	}
	pids := make(map[int]int)
	serviceSlices := 0
	for _, e := range doc.TraceEvents {
		pids[e.PID]++
		if e.Cat == "service" && e.Ph == "X" {
			serviceSlices++
			if e.TS < 0 || e.Dur < 0 {
				t.Errorf("service slice %q has negative ts/dur (%g, %g)", e.Name, e.TS, e.Dur)
			}
			if e.PID != 1 {
				t.Errorf("service slice %q on pid %d, want 1", e.Name, e.PID)
			}
		}
	}
	if pids[0] == 0 {
		t.Error("no solver virtual-time events (pid 0) in merged trace")
	}
	if pids[1] == 0 {
		t.Error("no service wall-clock events (pid 1) in merged trace")
	}
	if serviceSlices == 0 {
		t.Error("no service duration slices in merged trace")
	}
}

// TestServeBitIdenticalWithSpans is the determinism contract for the third
// observability plane: the same job run with the span layer attached and
// detached yields byte-identical tables artifacts, and the table-4 rows
// still match the repo golden — the wall-clock plane cannot move a
// virtual-time bit.
func TestServeBitIdenticalWithSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("two real table-4 solves; too slow under the race detector")
	}
	want, err := os.ReadFile("../../testdata/tables_scale005_steps2.jsonl")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	const body = `{"case":"airfoil","nodes":4,"steps":2,"scale":0.05,"tables":["4"]}`
	run := func(cfg Config) []byte {
		_, ts := newTestServer(t, cfg)
		_, v := postJob(t, ts, body, "")
		waitDone(t, ts, v.ID)
		return getArtifact(t, ts, v.ID, "tables")
	}
	withSpans := run(Config{Workers: 1})
	withoutSpans := run(Config{Workers: 1, FlightRecorder: -1})
	if !bytes.Equal(withSpans, withoutSpans) {
		t.Fatal("tables artifact changed when the span layer was attached")
	}
	rows := 0
	for _, line := range bytes.Split(bytes.TrimSpace(withSpans), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"table":"4"`)) {
			continue
		}
		rows++
		if !bytes.Contains(want, line) {
			t.Fatalf("table-4 line not found in golden: %s", line)
		}
	}
	if rows == 0 {
		t.Fatal("no table-4 rows in the tables artifact")
	}
}
