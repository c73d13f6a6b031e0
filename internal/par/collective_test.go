package par

import (
	"runtime"
	"testing"
)

// TestCollectivesZeroAlloc: once each scratch has held a gather of the
// widest width, a thousand rounds of every collective allocate no more than
// a few: what the runtime's parking takes, never anything per round.
func TestCollectivesZeroAlloc(t *testing.T) {
	const n, rounds, ceiling = 8, 1000, 64
	type item struct{ rank, round int }
	items := make([]item, n)
	var m0, m1 runtime.MemStats
	bad := make([]int, n)
	testWorld(n).Run(func(r *Rank) {
		x := make([]float64, 6)
		round := func(k int) {
			items[r.ID] = item{r.ID, k}
			for i, v := range r.AllGather(&items[r.ID], 8) {
				if *v.(*item) != (item{i, k}) {
					bad[r.ID]++
				}
			}
			for j := range x {
				x[j] = float64(10*r.ID + j + k)
			}
			for i, v := range r.AllGatherFloats(x) {
				if v != float64(10*(i/6)+i%6+k) {
					bad[r.ID]++
				}
			}
			if r.AllReduceSum(float64(r.ID)) != n*(n-1)/2 || r.AllReduceMax(float64(r.ID+k)) != float64(n-1+k) {
				bad[r.ID]++
			}
		}
		round(-2)
		round(-1)
		r.Barrier()
		if r.ID == 0 {
			runtime.ReadMemStats(&m0)
		}
		r.Barrier()
		for k := 0; k < rounds; k++ {
			round(k)
		}
		r.Barrier()
		if r.ID == 0 {
			runtime.ReadMemStats(&m1)
		}
		r.Barrier()
	})
	for id, b := range bad {
		if b != 0 {
			t.Errorf("rank %d read %d wrong gathered values", id, b)
		}
	}
	if objs := m1.Mallocs - m0.Mallocs; objs > ceiling {
		t.Errorf("%d rounds of collectives on %d ranks allocated %d objects (%d bytes), ceiling %d",
			rounds, n, objs, m1.TotalAlloc-m0.TotalAlloc, ceiling)
	}
}

// TestGatherViewLifetime: a gather's view holds what was gathered until the
// caller's next collective, however slowly it is read and whatever the
// faster ranks gather meanwhile — wider or narrower rows, other kinds of
// collective, barriers between. Run under -race at GOMAXPROCS 4, it also
// shows the reads ordered against the writes two collectives on.
func TestGatherViewLifetime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, rounds, slow = 6, 300, 2
	bad := make([]int, n)
	testWorld(n).Run(func(r *Rank) {
		check := func(ok bool) {
			if !ok {
				bad[r.ID]++
			}
			if r.ID == slow {
				runtime.Gosched()
			}
		}
		x := make([]float64, 0, 5)
		for k := 0; k < rounds; k++ {
			width := 1 + (k*7)%5
			x = x[:0]
			for j := 0; j < width; j++ {
				x = append(x, float64(1000*r.ID+100*j+k))
			}
			floats := r.AllGatherFloats(x)
			check(len(floats) == n*width)
			for i, v := range floats {
				check(v == float64(1000*(i/width)+100*(i%width)+k))
			}
			if k%3 == 0 {
				r.Barrier()
			}
			for i, v := range r.AllGather(r.ID*rounds+k, 8) {
				check(v.(int) == i*rounds+k)
			}
			check(r.AllReduceSum(float64(r.ID+k)) == float64(n*(n-1)/2+n*k))
			check(r.AllReduceMax(float64(r.ID*k)) == float64((n-1)*k))
		}
	})
	for id, b := range bad {
		if b != 0 {
			t.Errorf("rank %d read %d gathered values that had changed under it", id, b)
		}
	}
}
