package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// Artifacts is one job's complete output: the byte-exact documents a cache
// hit must reproduce. Steps records how many solver timesteps were executed
// to produce them (re-executed crashed work included) — a cache hit serves
// the same bytes with Steps work of zero.
//
// Artifacts are immutable once a Runner returns them: nothing writes into
// their bytes, so the cache, its disk tier, job records and HTTP handlers
// all share one *Artifacts and never copy it.
type Artifacts struct {
	// Tables is the JSON-lines tables document: the run's own rows plus
	// any selected paper tables (overd.EmitRunJSON + overd.EmitTablesJSON).
	Tables []byte
	// Trace is the trace-summary JSON (per-rank busy/wait decomposition).
	Trace []byte
	// Metrics is the run's metrics-registry JSON export.
	Metrics []byte
	// Chrome is the run's full virtual-time Chrome trace-event document;
	// GET /jobs/{id}/spans?format=chrome merges wall-clock service spans
	// into it. Deterministic like every other artifact.
	Chrome []byte
	// Steps is the solver timestep count executed to produce the bytes.
	Steps int
}

// Size returns the byte footprint charged against the cache budget.
func (a *Artifacts) Size() int64 {
	return int64(len(a.Tables) + len(a.Trace) + len(a.Metrics) + len(a.Chrome))
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// Cache is the content-addressed result store: hex SHA-256 of a job's
// canonical bytes → artifacts. The in-memory tier is an LRU bounded by a
// byte budget; an optional directory adds a write-through persistent tier
// that survives restarts and backstops evictions.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	dir     string
	stats   CacheStats
}

type cacheEntry struct {
	hash string
	art  *Artifacts
}

// NewCache returns a cache with the given in-memory byte budget (<= 0
// means a modest 64 MiB default) and optional persistent directory ("" =
// memory only). The directory is created on first use.
func NewCache(budget int64, dir string) *Cache {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Cache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		dir:     dir,
	}
}

var hashRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Get returns the artifacts stored under hash, consulting memory first and
// then the persistent tier (re-warming memory on a disk hit).
func (c *Cache) Get(hash string) (*Artifacts, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheEntry).art, true
	}
	if art, ok := c.readDisk(hash); ok {
		c.stats.Hits++
		c.insert(hash, art)
		return art, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores artifacts under hash, evicting least-recently-used entries
// until the memory tier fits its budget, and writes through to the
// persistent tier when one is configured. Oversized single entries still
// serve the current caller but are only kept on disk.
func (c *Cache) Put(hash string, art *Artifacts) error {
	if !hashRe.MatchString(hash) {
		return fmt.Errorf("serve: cache key %q is not a hex sha-256", hash)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var diskErr error
	if c.dir != "" {
		diskErr = c.writeDisk(hash, art)
	}
	if _, dup := c.entries[hash]; dup {
		return diskErr // deterministic artifacts: an overwrite changes nothing
	}
	if art.Size() <= c.budget {
		c.insert(hash, art)
	}
	return diskErr
}

// insert adds an entry (assumed absent) and evicts from the back until the
// budget holds. Caller holds the lock.
func (c *Cache) insert(hash string, art *Artifacts) {
	c.entries[hash] = c.lru.PushFront(&cacheEntry{hash: hash, art: art})
	c.used += art.Size()
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.hash)
		c.used -= e.art.Size()
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.used
	return s
}

// Persistent tier: one directory per hash holding the exact artifact bytes
// plus a small steps file. Files are written via a temp name + rename so a
// crashed write can never serve a torn artifact.

func (c *Cache) entryDir(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash)
}

// diskFiles are the persisted artifact documents. An entry directory that
// lacks any of them (one written before chrome.json joined the set) reads
// back as a miss — a cold re-run, never a torn artifact — and the write
// that follows replaces it.
var diskFiles = []string{"tables.jsonl", "trace.json", "metrics.json", "chrome.json"}

// complete reports whether the entry directory holds every diskFiles file.
func complete(dir string) bool {
	for _, name := range diskFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			return false
		}
	}
	return true
}

func (c *Cache) writeDisk(hash string, art *Artifacts) error {
	dir := c.entryDir(hash)
	if complete(dir) {
		return nil // already stored; artifacts are deterministic
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("serve: cache dir: %w", err)
	}
	for i, b := range [][]byte{art.Tables, art.Trace, art.Metrics, art.Chrome} {
		if err := os.WriteFile(filepath.Join(tmp, diskFiles[i]), b, 0o644); err != nil {
			return fmt.Errorf("serve: cache write: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "steps"), []byte(fmt.Sprintf("%d\n", art.Steps)), 0o644); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		// A concurrent writer may have won the rename; that copy is
		// byte-identical by construction, so losing the race is fine. An
		// incomplete entry in the way is replaced wholesale.
		if complete(dir) {
			_ = os.RemoveAll(tmp)
			return nil
		}
		if rmErr := os.RemoveAll(dir); rmErr == nil {
			if err = os.Rename(tmp, dir); err == nil {
				return nil
			}
		}
		return fmt.Errorf("serve: cache rename: %w", err)
	}
	return nil
}

func (c *Cache) readDisk(hash string) (*Artifacts, bool) {
	if c.dir == "" || !hashRe.MatchString(hash) {
		return nil, false
	}
	dir := c.entryDir(hash)
	var bufs [4][]byte
	for i, name := range diskFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, false
		}
		bufs[i] = b
	}
	art := &Artifacts{Tables: bufs[0], Trace: bufs[1], Metrics: bufs[2], Chrome: bufs[3]}
	if b, err := os.ReadFile(filepath.Join(dir, "steps")); err == nil {
		fmt.Sscanf(string(b), "%d", &art.Steps)
	}
	return art, true
}
