package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// fakeHash builds a syntactically valid cache key from a short tag.
func fakeHash(tag string) string {
	sum := sha256.Sum256([]byte(tag))
	return hex.EncodeToString(sum[:])
}

func art(tag string, n int) *Artifacts {
	return &Artifacts{
		Tables:  bytes.Repeat([]byte(tag[:1]), n),
		Trace:   []byte("{\"trace\":\"" + tag + "\"}"),
		Metrics: []byte("{\"metrics\":\"" + tag + "\"}"),
		Steps:   4,
	}
}

func TestCacheHitReturnsIdenticalBytes(t *testing.T) {
	c := NewCache(1<<20, "")
	h := fakeHash("a")
	orig := art("a", 100)
	if err := c.Put(h, orig); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(h)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got.Tables, orig.Tables) || !bytes.Equal(got.Trace, orig.Trace) ||
		!bytes.Equal(got.Metrics, orig.Metrics) || got.Steps != orig.Steps {
		t.Error("cached artifacts differ from stored ones")
	}
	// Artifacts are immutable, so a hit shares the stored value: no copy.
	if again, _ := c.Get(h); again != orig || got != orig {
		t.Error("a hit served a copy of the stored artifacts")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 2 hits 0 misses", s)
	}
}

func TestCacheLRUEvictionByByteBudget(t *testing.T) {
	// Each artifact is ~60 bytes of payload; budget fits roughly two.
	a0, a1, a2 := art("a", 20), art("b", 20), art("c", 20)
	budget := a0.Size() + a1.Size() + 10
	c := NewCache(budget, "")
	for i, a := range []*Artifacts{a0, a1, a2} {
		if err := c.Put(fakeHash(fmt.Sprintf("k%d", i)), a); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(fakeHash("k0")); ok {
		t.Error("oldest entry survived past the byte budget")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := c.Get(fakeHash(k)); !ok {
			t.Errorf("%s evicted although it fits the budget", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d", s.Bytes, budget)
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	a0, a1, a2 := art("a", 20), art("b", 20), art("c", 20)
	c := NewCache(a0.Size()+a1.Size()+10, "")
	c.Put(fakeHash("k0"), a0)
	c.Put(fakeHash("k1"), a1)
	c.Get(fakeHash("k0")) // k0 becomes most recent; k1 is now LRU
	c.Put(fakeHash("k2"), a2)
	if _, ok := c.Get(fakeHash("k1")); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := c.Get(fakeHash("k0")); !ok {
		t.Error("recently touched entry was evicted")
	}
}

func TestCacheRejectsBadKey(t *testing.T) {
	c := NewCache(0, "")
	if err := c.Put("not-a-hash", art("a", 4)); err == nil {
		t.Error("malformed key accepted")
	}
}

func TestCacheDiskRoundTripByteExact(t *testing.T) {
	dir := t.TempDir()
	h := fakeHash("disk")
	orig := art("d", 500)
	orig.Steps = 7

	w := NewCache(1<<20, dir)
	if err := w.Put(h, orig); err != nil {
		t.Fatal(err)
	}

	// A fresh cache (fresh process) over the same directory must serve the
	// identical bytes from the persistent tier.
	r := NewCache(1<<20, dir)
	got, ok := r.Get(h)
	if !ok {
		t.Fatal("disk tier miss")
	}
	if !bytes.Equal(got.Tables, orig.Tables) || !bytes.Equal(got.Trace, orig.Trace) ||
		!bytes.Equal(got.Metrics, orig.Metrics) {
		t.Error("disk round trip changed artifact bytes")
	}
	if got.Steps != 7 {
		t.Errorf("steps = %d, want 7", got.Steps)
	}
	// The disk hit re-warmed memory: a second Get must not touch disk
	// (verified indirectly: still a hit after wiping the directory).
	wipeDir(t, dir)
	if _, ok := r.Get(h); !ok {
		t.Error("entry not re-warmed into memory after disk hit")
	}
}

func TestCacheEvictedEntryBackstoppedByDisk(t *testing.T) {
	dir := t.TempDir()
	a0, a1, a2 := art("a", 20), art("b", 20), art("c", 20)
	c := NewCache(a0.Size()+a1.Size()+10, dir)
	c.Put(fakeHash("k0"), a0)
	c.Put(fakeHash("k1"), a1)
	c.Put(fakeHash("k2"), a2) // evicts k0 from memory, not from disk
	got, ok := c.Get(fakeHash("k0"))
	if !ok {
		t.Fatal("evicted entry lost despite persistent tier")
	}
	if !bytes.Equal(got.Tables, a0.Tables) {
		t.Error("disk backstop served wrong bytes")
	}
}

func wipeDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// An entry directory missing any artifact file — one written before
// chrome.json joined the set, say — reads back as a miss, and the next Put
// replaces it with a complete one.
func TestCacheIncompleteDiskEntryReplaced(t *testing.T) {
	for _, missing := range diskFiles {
		dir := t.TempDir()
		h := fakeHash("incomplete " + missing)
		orig := art("i", 50)
		orig.Chrome = []byte(`{"traceEvents":[]}`)
		if err := NewCache(1<<20, dir).Put(h, orig); err != nil {
			t.Fatal(err)
		}
		c := NewCache(1<<20, dir)
		if err := os.Remove(filepath.Join(c.entryDir(h), missing)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(h); ok {
			t.Fatalf("entry without %s served as a hit", missing)
		}
		if err := c.Put(h, orig); err != nil {
			t.Fatalf("replacing the entry without %s: %v", missing, err)
		}
		got, ok := NewCache(1<<20, dir).Get(h)
		if !ok || !bytes.Equal(got.Tables, orig.Tables) || !bytes.Equal(got.Chrome, orig.Chrome) || got.Steps != orig.Steps {
			t.Errorf("entry without %s not replaced by a complete one", missing)
		}
		if _, err := os.Stat(c.entryDir(h) + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("replacing the entry without %s left its temporary directory", missing)
		}
	}
}

// digest hashes the four documents of a.
func digest(a *Artifacts) [4][32]byte {
	return [4][32]byte{sha256.Sum256(a.Tables), sha256.Sum256(a.Trace),
		sha256.Sum256(a.Metrics), sha256.Sum256(a.Chrome)}
}

// Artifacts are shared, never copied, so nothing may write into them: every
// document a runner returned hashes at Shutdown as it did when the cache
// stored it, after memory hits, disk hits, raw fetches of all four documents
// and merged Chrome traces, all at once, at GOMAXPROCS 4 (under -race in CI).
func TestServeArtifactsImmutable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bodies := []string{
		`{"case":"airfoil","nodes":4,"steps":1,"scale":0.05}`,
		`{"case":"airfoil","nodes":6,"steps":1,"scale":0.05}`,
		`{"case":"airfoil","nodes":3,"steps":2,"scale":0.05}`,
	}
	// A budget of one byte keeps no Put in memory: the first hit on each job
	// is a disk hit, and the hits that follow alternate with the others'.
	s, err := NewServer(Config{Workers: 2, CacheBytes: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	stored := map[*Artifacts]string{} // the runner's artifacts → their job hash
	want := map[string][4][32]byte{}  // job hash → digests at Put
	real := s.cfg.Runner
	s.cfg.Runner = func(ctx context.Context, job Job, progress func(Event)) (*Artifacts, error) {
		a, err := real(ctx, job, progress)
		if err == nil {
			mu.Lock()
			stored[a], want[job.Hash()] = job.Hash(), digest(a)
			mu.Unlock()
		}
		return a, err
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range bodies {
		_, v := postJob(t, ts, body, "")
		waitDone(t, ts, v.ID)
	}

	get := func(url string) ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
		}
		return b, err
	}
	jobs := make([]Job, len(bodies))
	for i, body := range bodies {
		jobs[i] = mustParseJob(t, body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				js, cs, err := s.Submit(jobs[(g+i)%len(jobs)])
				if err != nil || cs != CacheHit {
					t.Errorf("resubmission: %v, cache %q, want a hit", err, cs)
					return
				}
				mu.Lock()
				w := want[js.hash]
				mu.Unlock()
				base := ts.URL + "/jobs/" + js.id
				for k, name := range []string{"tables", "trace", "metrics", "chrome"} {
					b, err := get(base + "/result?artifact=" + name)
					if err != nil || sha256.Sum256(b) != w[k] {
						t.Errorf("%s of a hit (err %v) differs from the bytes stored", name, err)
					}
				}
				if b, err := get(base + "/spans?format=chrome"); err != nil || !json.Valid(b) {
					t.Errorf("merged Chrome trace of a hit: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(stored) != len(bodies) {
		t.Fatalf("%d runs for %d distinct jobs", len(stored), len(bodies))
	}
	for a, h := range stored {
		if digest(a) != want[h] {
			t.Errorf("job %s: the runner's artifacts changed after Put", h[:12])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, js := range s.jobs {
		if js.art != nil && digest(js.art) != want[js.hash] {
			t.Errorf("job %s: the artifacts of its record changed", js.id)
		}
	}
}
