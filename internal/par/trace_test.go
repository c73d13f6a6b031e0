package par

import (
	"math"
	"testing"

	"overd/internal/machine"
	"overd/internal/trace"
)

// traceModel has round numbers so clock assertions are exact: 1e8 flop/s,
// 1 ms latency, 1 MB/s bandwidth, no cache or short-loop effects.
func traceModel() machine.Model {
	return machine.Model{
		Name: "T", BaseMflops: 100, CacheBoost: 0, CacheBytes: 1,
		LatencySec: 1e-3, BandwidthBps: 1e6,
	}
}

func tracedWorld(t *testing.T, n int) (*World, *trace.Recorder) {
	t.Helper()
	w := NewWorld(n, traceModel())
	rec := trace.NewRecorder()
	w.SetTrace(rec)
	return w, rec
}

func kindsOf(evs []trace.Event) []trace.Kind {
	ks := make([]trace.Kind, len(evs))
	for i, e := range evs {
		ks[i] = e.Kind
	}
	return ks
}

func approx(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %.15g, want %.15g", what, got, want)
	}
}

// TestTraceSendRecvEvents checks the exact event sequence and clocks of a
// one-message exchange: the sender emits a send with overhead, the receiver
// emits a wait bounded by the modeled wire time and a recv marker, and the
// two sides share a flow id.
func TestTraceSendRecvEvents(t *testing.T) {
	w, rec := tracedWorld(t, 2)
	const bytes = 1000 // wire time = 1e-3 + 1000/1e6 = 2e-3
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagHalo, nil, bytes)
		} else {
			r.Recv(0, TagHalo)
		}
	})

	e0 := rec.Events(0)
	if len(e0) != 1 || e0[0].Kind != trace.KindSend {
		t.Fatalf("rank 0 events = %v, want [send]", kindsOf(e0))
	}
	approx(t, e0[0].Start, 0, "send start")
	approx(t, e0[0].Dur, 0.25e-3, "send overhead")
	if e0[0].Peer != 1 || e0[0].Bytes != bytes || e0[0].Flow == 0 {
		t.Errorf("send event fields = %+v", e0[0])
	}

	e1 := rec.Events(1)
	if len(e1) != 2 || e1[0].Kind != trace.KindWait || e1[1].Kind != trace.KindRecv {
		t.Fatalf("rank 1 events = %v, want [recv-wait recv]", kindsOf(e1))
	}
	approx(t, e1[0].Start, 0, "wait start")
	approx(t, e1[0].Dur, 2e-3, "wait duration (latency + bytes/bw)")
	approx(t, e1[1].Start, 2e-3, "recv marker time")
	if e1[0].Peer != 0 || e1[0].Flow != e0[0].Flow || e1[1].Flow != e0[0].Flow {
		t.Errorf("flow linkage broken: send %+v wait %+v recv %+v", e0[0], e1[0], e1[1])
	}
	if got := rec.FinalClock(1); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("rank 1 final clock %v, want 2e-3", got)
	}
}

// TestTraceBarrierEvents: with staggered clocks, slower ranks emit a
// barrier-wait attributing the release to the slowest rank, every rank emits
// the same log-tree sync cost, and all clocks agree afterward.
func TestTraceBarrierEvents(t *testing.T) {
	const n = 4
	w, rec := tracedWorld(t, n)
	ranks := w.Run(func(r *Rank) {
		r.elapse(float64(r.ID)) // rank i at clock i; rank 3 is slowest
		r.Barrier()
	})

	syncCost := 1e-3 * 2 // log2ceil(4) = 2 latencies
	for i, r := range ranks {
		approx(t, r.Clock, 3+syncCost, "final clock")
		evs := rec.Events(i)
		var wait, sync *trace.Event
		for k := range evs {
			switch evs[k].Kind {
			case trace.KindBarrier:
				wait = &evs[k]
			case trace.KindSync:
				sync = &evs[k]
			}
		}
		if sync == nil {
			t.Fatalf("rank %d missing barrier-sync event", i)
		}
		approx(t, sync.Dur, syncCost, "sync cost")
		if i == n-1 {
			if wait != nil {
				t.Errorf("slowest rank %d should not wait, got %+v", i, *wait)
			}
			continue
		}
		if wait == nil {
			t.Fatalf("rank %d missing barrier-wait event", i)
		}
		approx(t, wait.Start, float64(i), "wait start")
		approx(t, wait.Dur, float64(n-1-i), "wait duration")
		if wait.Peer != n-1 {
			t.Errorf("rank %d barrier released by %d, want %d", i, wait.Peer, n-1)
		}
		approx(t, r.BarrierWaitTime(PhaseOther), float64(n-1-i), "BarrierWaitTime")
	}
}

// TestTraceAllGatherDeterministic: AllGather on 3 ranks produces identical,
// reproducible event streams and clocks across two runs, and the collective
// emits its rendezvous waits and data-movement event.
func TestTraceAllGatherDeterministic(t *testing.T) {
	run := func() (*trace.Recorder, []float64) {
		w := NewWorld(3, traceModel())
		rec := trace.NewRecorder()
		w.SetTrace(rec)
		var sums [3]float64
		ranks := w.Run(func(r *Rank) {
			r.elapse(float64(r.ID) * 0.5)
			sums[r.ID] = r.AllReduceSum(float64(r.ID + 1))
		})
		clocks := make([]float64, 3)
		for i, rk := range ranks {
			clocks[i] = rk.Clock
			if sums[i] != 6 {
				t.Fatalf("rank %d AllReduceSum = %v, want 6", i, sums[i])
			}
		}
		return rec, clocks
	}
	recA, clocksA := run()
	recB, clocksB := run()
	for i := range clocksA {
		if clocksA[i] != clocksB[i] {
			t.Errorf("rank %d clock differs across runs: %v vs %v", i, clocksA[i], clocksB[i])
		}
		ea, eb := recA.Events(i), recB.Events(i)
		if len(ea) != len(eb) {
			t.Fatalf("rank %d event count differs: %d vs %d", i, len(ea), len(eb))
		}
		for k := range ea {
			if ea[k] != eb[k] {
				t.Errorf("rank %d event %d differs: %+v vs %+v", i, k, ea[k], eb[k])
			}
		}
		var gathers, waits int
		for _, e := range ea {
			switch e.Kind {
			case trace.KindGather:
				gathers++
			case trace.KindBarrier:
				waits++
			}
		}
		if gathers != 1 {
			t.Errorf("rank %d: %d gather events, want 1", i, gathers)
		}
		// Rank 2 (slowest into the first rendezvous) never waits there;
		// everyone is synchronized by the second rendezvous.
		if i != 2 && waits == 0 {
			t.Errorf("rank %d: expected at least one rendezvous wait", i)
		}
	}
	// All clocks equal after the collective.
	if clocksA[0] != clocksA[1] || clocksA[1] != clocksA[2] {
		t.Errorf("clocks diverge after AllGather: %v", clocksA)
	}
}

// TestSelfSendIsFree pins the self-send semantics the Send comment
// documents: no clock charge and immediate availability, because a local
// hand-off crosses no wire and no messaging stack.
func TestSelfSendIsFree(t *testing.T) {
	w := testWorld(1)
	w.Run(func(r *Rank) {
		r.elapse(1.0)
		before := r.Clock
		r.Send(0, TagUser, "x", 1<<20) // size must not matter
		if r.Clock != before {
			t.Errorf("self-send advanced clock by %v, want 0", r.Clock-before)
		}
		m := r.Recv(0, TagUser)
		if r.Clock != before {
			t.Errorf("self-recv advanced clock by %v, want 0", r.Clock-before)
		}
		if m.Arrive != before {
			t.Errorf("self-send arrival %v, want %v (immediate)", m.Arrive, before)
		}
		if r.WaitTime(PhaseOther) != 0 {
			t.Errorf("self-send recorded wait time %v", r.WaitTime(PhaseOther))
		}
	})
}

// TestWaitTimeAccounting checks Rank.WaitTime splits receive wait from
// barrier wait and that both are subsets of the active phase's time.
func TestWaitTimeAccounting(t *testing.T) {
	w := testWorld(2)
	var recvWait, barWait, phaseTime float64
	w.Run(func(r *Rank) {
		r.SetPhase(PhaseConnect)
		if r.ID == 0 {
			r.elapse(1.0)
			r.Send(1, TagUser, nil, 4000)
			r.Barrier()
		} else {
			r.Recv(0, TagUser) // waits ~1s for the slow sender
			r.Barrier()
			recvWait = r.RecvWaitTime(PhaseConnect)
			barWait = r.BarrierWaitTime(PhaseConnect)
			phaseTime = r.PhaseTime(PhaseConnect)
		}
	})
	if recvWait <= 0.9 {
		t.Errorf("recv wait %v, want ~1s", recvWait)
	}
	if recvWait+barWait > phaseTime {
		t.Errorf("wait %v exceeds phase time %v", recvWait+barWait, phaseTime)
	}
	if recvWait != recvWait+barWait-barWait { // NaN guard
		t.Errorf("wait accounting produced NaN")
	}
}

// TestUntracedHotPathNoAllocs asserts the zero-cost-when-disabled claim:
// with no recorder attached, Compute, Transfer and a cross-rank Send/Recv pair
// allocate nothing on the steady-state hot path.
func TestUntracedHotPathNoAllocs(t *testing.T) {
	pinOneProc(t)
	w := NewWorld(2, traceModel())
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			// Warm the inbox/pending paths before measuring.
			r.Send(1, TagUser, nil, 8)
			if n := testing.AllocsPerRun(100, func() {
				r.Compute(1000)
				r.Transfer(8)
			}); n != 0 {
				t.Errorf("untraced Compute/Transfer allocate %.1f objects/op", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				r.Send(1, TagUser, nil, 8)
			}); n != 0 {
				t.Errorf("untraced Send allocates %.1f objects/op", n)
			}
			r.Send(1, TagUser+1, nil, 0) // stop marker
		} else {
			r.Recv(0, TagUser)
			for {
				if _, ok := r.TryRecv(0, TagUser+1); ok {
					break
				}
				if _, ok := r.TryRecv(0, TagUser); !ok {
					continue
				}
			}
			// Drain the measured sends.
			for {
				if _, ok := r.TryRecv(0, TagUser); !ok {
					break
				}
			}
		}
	})
}

// BenchmarkUntracedCompute reports the untraced hot-path cost; the 0
// allocs/op figure is the benchmark form of the zero-cost assertion.
func BenchmarkUntracedCompute(b *testing.B) {
	w := NewWorld(1, traceModel())
	w.Run(func(r *Rank) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Compute(100)
		}
	})
}

// BenchmarkTracedCompute reports the per-event tracing overhead for
// comparison (one append into the rank-owned buffer).
func BenchmarkTracedCompute(b *testing.B) {
	w := NewWorld(1, traceModel())
	rec := trace.NewRecorder()
	w.SetTrace(rec)
	w.Run(func(r *Rank) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Compute(100)
		}
	})
}
