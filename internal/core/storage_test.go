package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"overd/internal/cases"
	"overd/internal/fault"
	"overd/internal/machine"
)

// storageRuns are the three ways a run takes and returns slabs: once, again
// at a repartition, and again on the restart after a crash. Each mk builds a
// fresh case (a run moves its grids), sampled so that the final field is
// part of the Result.
var storageRuns = []struct {
	name  string
	mk    func() Config
	check func(t *testing.T, res *Result)
}{
	{"static-airfoil", func() Config {
		return smallAirfoil(5, math.Inf(1), 4)
	}, func(t *testing.T, res *Result) {}},
	{"dynamic-storesep", func() Config {
		return Config{Case: cases.StoreSep(0.05), Nodes: 18, Machine: machine.SP2(),
			Steps: 6, Fo: 2, CheckInterval: 3}
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
		if res.Recoveries != 1 || res.Checkpoints < 1 {
			t.Fatalf("recoveries %d, checkpoints %d: no restart from a checkpoint", res.Recoveries, res.Checkpoints)
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

func slabSet(s *Storage) map[*float64]bool {
	set := map[*float64]bool{}
	for _, b := range s.free {
		set[&b[:1][0]] = true
	}
	return set
}

// A run that builds its blocks in recycled memory full of NaN must not
// differ in one bit from a run that allocates them fresh.
func TestStorageBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range storageRuns {
			want := mustRunStored(t, tc.mk, nil)
			tc.check(t, want)
			if len(want.Field) == 0 {
				t.Fatalf("%s: no field sampled", tc.name)
			}

			s := NewStorage()
			first := mustRunStored(t, tc.mk, s)
			if !reflect.DeepEqual(first, want) {
				t.Errorf("%s, %d procs: run through an empty Storage differs from the nil-Storage run", tc.name, procs)
			}
			held := slabSet(s)
			if len(held) == 0 {
				t.Fatalf("%s: the run left no slab in its Storage", tc.name)
			}
			for _, b := range s.free {
				b = b[:cap(b)]
				for i := range b {
					b[i] = math.NaN()
				}
			}
			again := mustRunStored(t, tc.mk, s)
			if !reflect.DeepEqual(again, want) {
				t.Errorf("%s, %d procs: run through a NaN-filled Storage differs from the nil-Storage run", tc.name, procs)
			}
			for p := range slabSet(s) {
				if !held[p] {
					t.Errorf("%s, %d procs: the second run made a new slab instead of reusing one", tc.name, procs)
				}
			}
		}
	}
}

// Blocks are most of what a run allocates, so a second run through the same
// Storage allocates a fraction of the first's bytes.
func TestStorageSecondRunAllocatesLess(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	if 4*bytes[1] >= bytes[0] {
		t.Errorf("second run allocated %d bytes, first %d: want under 25 %%", bytes[1], bytes[0])
	}
}

// Two runs at once may share a Storage (run under -race in CI).
func TestStorageSharedByConcurrentRuns(t *testing.T) {
	mk := storageRuns[1].mk // repartitions: takes and returns slabs mid-run
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
