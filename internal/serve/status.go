package serve

import (
	"net/http"
	"time"
)

// statusView is the GET /status JSON document: one page that answers "is the
// service healthy and what is it doing right now" without scraping /metrics
// or tailing logs — uptime and incarnation, queue and in-flight load per
// tenant, journal health, cache occupancy, what the runs' Storage holds,
// flight-recorder residency, and a bounded ring of recent failures to pivot
// into GET /jobs/{id}/spans from.
type statusView struct {
	Service       string  `json:"service"`
	Incarnation   string  `json:"incarnation"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Draining      bool    `json:"draining"`

	Queue struct {
		Depth    int            `json:"depth"`
		Capacity int            `json:"capacity"`
		ByTenant map[string]int `json:"by_tenant,omitempty"`
	} `json:"queue"`
	Running struct {
		Total    int            `json:"total"`
		ByTenant map[string]int `json:"by_tenant,omitempty"`
	} `json:"running"`
	EventSubscribers int `json:"event_subscribers"`

	// Jobs are the lifetime counters (mirrors of the /metrics families).
	Jobs map[string]float64 `json:"jobs"`

	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Entries   int   `json:"entries"`
		Bytes     int64 `json:"bytes"`
		DiskTier  bool  `json:"disk_tier"`
	} `json:"cache"`

	Journal *journalStatus `json:"journal,omitempty"`

	// Storage is what the server's runs leave for the next: free slab bytes,
	// kits, trace recorders and encode-scratch bytes held, and how many times
	// an idle server or Shutdown dropped it.
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

	RecentFailures []failureNote `json:"recent_failures,omitempty"`
}

// journalStatus summarizes WAL health: append/failure counts and whether the
// journal file is still open (it closes on clean drain).
type journalStatus struct {
	Open      bool   `json:"open"`
	Appends   int64  `json:"appends"`
	Failures  int64  `json:"failures"`
	LastError string `json:"last_error,omitempty"`
}

// handleOverview is GET /status.
func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statusSnapshot())
}

// statusSnapshot assembles the overview under one brief hold of s.mu.
func (s *Server) statusSnapshot() statusView {
	var v statusView
	v.Service = "overd-job-service"
	v.Incarnation = s.incarnation
	v.UptimeSeconds = time.Since(s.started).Seconds()
	v.Workers = s.cfg.Workers

	s.mu.Lock()
	v.Draining = s.closed
	v.Queue.Depth = s.queued
	v.Queue.Capacity = s.cfg.QueueDepth
	for tenant, q := range s.queues {
		if len(q) > 0 {
			if v.Queue.ByTenant == nil {
				v.Queue.ByTenant = make(map[string]int)
			}
			v.Queue.ByTenant[tenant] = len(q)
		}
	}
	v.Running.Total = s.running
	if len(s.runningBy) > 0 {
		v.Running.ByTenant = make(map[string]int, len(s.runningBy))
		for tenant, n := range s.runningBy {
			v.Running.ByTenant[tenant] = n
		}
	}
	v.EventSubscribers = s.subscribers
	store := s.store
	v.Storage.Releases = s.releases
	if s.cfg.JournalDir != "" {
		v.Journal = &journalStatus{
			Open: s.jrnl != nil, Appends: s.jrnlAppends,
			Failures: s.jrnlFails, LastError: s.jrnlLastErr,
		}
	}
	// Newest-first copy of the failure ring.
	for i := 0; i < len(s.failures); i++ {
		idx := (s.failNext - 1 - i + len(s.failures)) % len(s.failures)
		v.RecentFailures = append(v.RecentFailures, s.failures[idx])
	}
	s.mu.Unlock()

	v.Jobs = make(map[string]float64, 8)
	for short, name := range map[string]string{
		"accepted":  "overd_serve_jobs_accepted_total",
		"rejected":  "overd_serve_jobs_rejected_total",
		"shed":      "overd_serve_jobs_shed_total",
		"deduped":   "overd_serve_jobs_deduped_total",
		"failed":    "overd_serve_jobs_failed_total",
		"cancelled": "overd_serve_jobs_cancelled_total",
		"replayed":  "overd_serve_jobs_replayed_total",
		"panics":    "overd_serve_panics_total",
		"retries":   "overd_serve_retries_total",
	} {
		v.Jobs[short] = s.reg.CounterValue(name, 0)
	}

	h := store.Held()
	v.Storage.SlabBytes, v.Storage.Kits = h.SlabBytes, h.Kits
	v.Storage.Recorders, v.Storage.ScratchBytes = h.Recorders, h.ScratchBytes

	cs := s.cache.Stats()
	v.Cache.Hits, v.Cache.Misses, v.Cache.Evictions = cs.Hits, cs.Misses, cs.Evictions
	v.Cache.Entries, v.Cache.Bytes = cs.Entries, cs.Bytes
	v.Cache.DiskTier = s.cfg.CacheDir != ""

	v.FlightRecorder.Enabled = s.flight != nil
	v.FlightRecorder.Resident = s.flight.Len()
	v.FlightRecorder.Capacity = s.flight.Cap()
	return v
}
