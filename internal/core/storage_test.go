package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"overd/internal/cases"
	"overd/internal/fault"
	"overd/internal/machine"
)

// storageRuns is the life of one Storage in a sweep: a case after another,
// small worlds before large ones and back, the three ways a run takes and
// returns slabs (once, again at a repartition, again on the restart after a
// crash) and a kit that the next run finds sized for other ranks of another
// grid system. Each mk builds a fresh case (a run moves its grids), sampled
// so that the final field is part of the Result.
var storageRuns = []struct {
	name  string
	mk    func() Config
	check func(t *testing.T, res *Result)
}{
	{"deltawing-7", func() Config {
		return Config{Case: cases.DeltaWing(0.05), Nodes: 7, Machine: machine.SP2(), Steps: 2, Fo: math.Inf(1)}
	}, func(t *testing.T, res *Result) {}},
	{"storesep-16", func() Config {
		return Config{Case: cases.StoreSep(0.05), Nodes: 16, Machine: machine.SP2(), Steps: 2, Fo: math.Inf(1)}
	}, func(t *testing.T, res *Result) {}},
	{"airfoil-24", func() Config {
		return smallAirfoil(24, math.Inf(1), 3)
	}, func(t *testing.T, res *Result) {}},
	{"storesep-52-repartitions", func() Config {
		return Config{Case: cases.StoreSep(0.2), Nodes: 52, Machine: machine.SP2(),
			Steps: 3, Fo: 5, CheckInterval: 3}
	}, func(t *testing.T, res *Result) {
		if res.Rebalances == 0 {
			t.Fatal("the dynamic run never repartitioned")
		}
	}},
	{"crash-restart", func() Config {
		cfg := smallAirfoil(5, math.Inf(1), 8)
		cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, Step: 5}}}
		cfg.CheckpointEvery = 3
		return cfg
	}, func(t *testing.T, res *Result) {
		if res.Recoveries != 1 || res.Checkpoints < 1 || res.FinalNodes != 4 {
			t.Fatalf("recoveries %d, checkpoints %d, final nodes %d: no restart from a checkpoint on n-1",
				res.Recoveries, res.Checkpoints, res.FinalNodes)
		}
	}},
}

// runStored runs mk's configuration, sampled, through s and returns the
// Result without its case (motions hold functions, which never compare
// equal; the sampled field and every clock stay).
func runStored(mk func() Config, s *Storage) (*Result, error) {
	cfg := mk()
	cfg.Sample = &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0}
	cfg.Storage = s
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if res.Config.Storage != nil {
		return nil, errors.New("Result.Config keeps the Storage")
	}
	res.Config.Case = nil
	return res, nil
}

func mustRunStored(t *testing.T, mk func() Config, s *Storage) *Result {
	t.Helper()
	res, err := runStored(mk, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// storageWants runs the chain with no Storage, once for all tests: what
// every run through one must equal, at any GOMAXPROCS.
func storageWants(t *testing.T) []*Result {
	t.Helper()
	if storageWant == nil {
		for _, tc := range storageRuns {
			want := mustRunStored(t, tc.mk, nil)
			tc.check(t, want)
			if len(want.Field) == 0 {
				t.Fatalf("%s: no field sampled", tc.name)
			}
			storageWant = append(storageWant, want)
		}
	}
	return storageWant
}

var storageWant []*Result

// One Storage handed down the chain: every run, whatever cases and worlds the
// Storage served before it, must not differ in one bit from the run that
// allocates everything fresh, and must give back what it took.
func TestStorageBitIdentical(t *testing.T) {
	wants := storageWants(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		s := NewStorage()
		for i, tc := range storageRuns {
			if got := mustRunStored(t, tc.mk, s); !reflect.DeepEqual(got, wants[i]) {
				t.Errorf("%s, %d procs: run through the chain's Storage differs from the nil-Storage run", tc.name, procs)
			}
			if len(s.kits) != 1 || len(s.free) == 0 {
				t.Fatalf("%s, %d procs: the run left %d kits and %d slabs in its Storage, want 1 and some",
					tc.name, procs, len(s.kits), len(s.free))
			}
		}
	}
}

// Nothing a run takes from a Storage is read before it is written: with every
// recycled float NaN, every index −1, every mask set, every restart hint
// pointing nowhere and every remembered walk spoilt under its key, the chain
// still equals the nil-Storage runs — and so does its second run made twice
// more, the second time on the ranks, boxes and walk keys of the first.
func TestStoragePoisonedBitIdentical(t *testing.T) {
	wants := storageWants(t)
	s := NewStorage()
	for _, i := range []int{0, 1, 2, 3, 4, 1, 1} {
		poisonStorage(s)
		if got := mustRunStored(t, storageRuns[i].mk, s); !reflect.DeepEqual(got, wants[i]) {
			t.Errorf("%s: run through a poisoned Storage differs from the nil-Storage run", storageRuns[i].name)
		}
	}
	// The poison reached what it is meant for: the chain left solver
	// buffers, a memo, masks, halo envelopes and fringe-value batches behind.
	poisoned := poisonStorage(s)
	for _, typ := range []string{"[]float64", "[]int", "[]bool", "[]dcf.walkSlot", "[]overset.IGBP", "map[dcf.restartKey]dcf.restartHint", "*flow.faceMsg", "[]dcf.valMsg"} {
		if poisoned[typ] == 0 {
			t.Errorf("the chain left no %s in its Storage to poison", typ)
		}
	}
}

// poisonStorage overwrites what s holds for the next run — every free slab
// and, through every pointer, slice (to its capacity) and map of every kit,
// every float with NaN, every integer with all ones (−1) and every bool
// with true. Lengths and pointers stay: they are the kit. It returns how
// many values of each type it visited.
func poisonStorage(s *Storage) map[string]int {
	for _, b := range s.free {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	seen := map[string]int{}
	for _, k := range s.kits {
		poison(reflect.ValueOf(k.flow), seen)
		poison(reflect.ValueOf(k.dcf), seen)
	}
	return seen
}

func poison(v reflect.Value, seen map[string]int) {
	if v.CanAddr() && !v.CanSet() { // an unexported field: lift the read-only flag
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			seen[v.Type().String()]++
			poison(v.Elem(), seen)
		}
	case reflect.Interface:
		if !v.IsNil() && v.Elem().Kind() == reflect.Pointer {
			poison(v.Elem(), seen)
		}
	case reflect.Struct:
		if v.Type().PkgPath() == "sync" {
			return // a mutex's state is not a buffer
		}
		if v.Type().String() == "dcf.walkSlot" {
			// A remembered walk keeps its key — position, start, request —
			// so that a slot left in a table is found, by the same case's
			// next run at the latest, and loses what it remembers.
			for _, f := range []string{"abc", "cell", "steps", "out"} {
				poison(v.FieldByName(f), seen)
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i), seen)
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		seen[v.Type().String()] += v.Len()
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i), seen)
		}
	case reflect.Map:
		seen[v.Type().String()] += v.Len()
		for _, key := range v.MapKeys() {
			hint := reflect.New(v.Type().Elem()).Elem()
			poison(hint, seen)
			v.SetMapIndex(key, hint)
		}
	case reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Bool:
		v.SetBool(true)
	}
}

// A second run through the same Storage finds its slab, its kit and nothing
// to grow: what it still allocates is its case's grids, its world and its
// Result — 2.5 MB where the first run allocates 79 and a Storage that kept
// only slabs left 12.
func TestStorageSecondRunAllocatesLess(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ceiling = 4 << 20
	s := NewStorage()
	var bytes [2]uint64
	for i := range bytes {
		cfg := Config{Case: cases.DeltaWing(0.05), Nodes: 7, Machine: machine.SP2(),
			Steps: 2, Fo: math.Inf(1), Storage: s}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		bytes[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	t.Logf("first run %d bytes, second %d (%.1f %%)", bytes[0], bytes[1], 100*float64(bytes[1])/float64(bytes[0]))
	if bytes[1] > ceiling {
		t.Errorf("second run allocated %d bytes, ceiling %d (first: %d)", bytes[1], ceiling, bytes[0])
	}
}

// Two runs at once may share a Storage (run under -race in CI).
func TestStorageSharedByConcurrentRuns(t *testing.T) {
	mk := func() Config { // repartitions: takes and returns slabs mid-run
		return Config{Case: cases.StoreSep(0.05), Nodes: 18, Machine: machine.SP2(),
			Steps: 6, Fo: 2, CheckInterval: 3}
	}
	want := mustRunStored(t, mk, nil)
	s := NewStorage()
	var wg sync.WaitGroup
	got := make([]*Result, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				res, err := runStored(mk, s)
				if err != nil {
					t.Error(err)
					return
				}
				got[2*w+i] = res
			}
		}(w)
	}
	wg.Wait()
	for i, res := range got {
		if res != nil && !reflect.DeepEqual(res, want) {
			t.Errorf("concurrent run %d differs from the nil-Storage run", i)
		}
	}
}
