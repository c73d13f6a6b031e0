package par

import (
	"strings"
	"testing"

	"overd/internal/machine"
	"overd/internal/trace"
)

func testWorld(n int) *World { return NewWorld(n, machine.SP2()) }

// elapse puts a rank at a time of the test's choosing: seconds of busy time
// in the current phase, traced like any other.
func (r *Rank) elapse(seconds float64) {
	if r.tr != nil && seconds > 0 {
		r.emit(trace.KindElapse, r.Clock, seconds, 0, trace.NoPeer, 0, 0)
	}
	r.advance(seconds)
}

func TestSendRecvDelivers(t *testing.T) {
	w := testWorld(2)
	var got string
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagUser, "hello", 5)
		} else {
			m := r.Recv(0, TagUser)
			got = m.Data.(string)
		}
	})
	if got != "hello" {
		t.Errorf("received %q", got)
	}
}

func TestRecvAdvancesClockToArrival(t *testing.T) {
	w := testWorld(2)
	var recvClock, sendArrive float64
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.elapse(1.0) // sender is ahead
			r.Send(1, TagUser, nil, 4000)
		} else {
			m := r.Recv(0, TagUser)
			recvClock = r.Clock
			sendArrive = m.Arrive
		}
	})
	if recvClock < 1.0 {
		t.Errorf("receiver clock %v should include sender's head start", recvClock)
	}
	if recvClock != sendArrive {
		t.Errorf("receiver clock %v != message arrival %v", recvClock, sendArrive)
	}
	want := 1.0 + machine.SP2().CommTime(4000)
	if diff := sendArrive - want; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("arrival %v, want %v", sendArrive, want)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	w := testWorld(2)
	var recvClock float64
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagUser, nil, 8)
		} else {
			r.elapse(5.0) // receiver is far ahead
			m := r.Recv(0, TagUser)
			_ = m
			recvClock = r.Clock
		}
	})
	if recvClock != 5.0 {
		t.Errorf("receiver clock %v, want 5.0 (no rewind, arrival already past)", recvClock)
	}
}

func TestTagMatching(t *testing.T) {
	w := testWorld(2)
	var first, second string
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagUser, "a", 1)
			r.Send(1, TagUser+1, "b", 1)
		} else {
			// Receive out of order: tag-based matching must buffer "a".
			second = r.Recv(0, TagUser+1).Data.(string)
			first = r.Recv(0, TagUser).Data.(string)
		}
	})
	if first != "a" || second != "b" {
		t.Errorf("got %q/%q", first, second)
	}
}

func TestSelfSend(t *testing.T) {
	w := testWorld(1)
	var got string
	w.Run(func(r *Rank) {
		r.Send(0, TagUser, "self", 4)
		got = r.Recv(0, TagUser).Data.(string)
	})
	if got != "self" {
		t.Errorf("self-send got %q", got)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := testWorld(4)
	ranks := w.Run(func(r *Rank) {
		r.elapse(float64(r.ID)) // rank i at time i
		r.Barrier()
	})
	for _, r := range ranks {
		if r.Clock < 3.0 {
			t.Errorf("rank %d clock %v < 3.0 after barrier", r.ID, r.Clock)
		}
	}
	// All equal.
	for _, r := range ranks[1:] {
		if r.Clock != ranks[0].Clock {
			t.Errorf("clocks differ after barrier: %v vs %v", r.Clock, ranks[0].Clock)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	w := testWorld(3)
	ranks := w.Run(func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.elapse(float64(r.ID) * 0.1)
			r.Barrier()
		}
	})
	for _, r := range ranks[1:] {
		if r.Clock != ranks[0].Clock {
			t.Fatalf("clocks diverged over repeated barriers")
		}
	}
}

func TestAllReduce(t *testing.T) {
	w := testWorld(5)
	sums := make([]float64, 5)
	maxs := make([]float64, 5)
	w.Run(func(r *Rank) {
		sums[r.ID] = r.AllReduceSum(float64(r.ID + 1))
		maxs[r.ID] = r.AllReduceMax(float64(r.ID))
	})
	for i := 0; i < 5; i++ {
		if sums[i] != 15 {
			t.Errorf("rank %d sum = %v, want 15", i, sums[i])
		}
		if maxs[i] != 4 {
			t.Errorf("rank %d max = %v, want 4", i, maxs[i])
		}
	}
}

func TestAllGatherOrdered(t *testing.T) {
	w := testWorld(4)
	var got [4][]any
	w.Run(func(r *Rank) {
		got[r.ID] = r.AllGather(r.ID*10, 8)
	})
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 4; i++ {
			if got[rank][i].(int) != i*10 {
				t.Errorf("rank %d slot %d = %v", rank, i, got[rank][i])
			}
		}
	}
}

func TestAllGatherBackToBack(t *testing.T) {
	// Two immediate collectives must not interfere.
	w := testWorld(3)
	var a, b []any
	w.Run(func(r *Rank) {
		x := r.AllGather(r.ID, 8)
		y := r.AllGather(r.ID+100, 8)
		if r.ID == 0 {
			a, b = x, y
		}
	})
	for i := 0; i < 3; i++ {
		if a[i].(int) != i || b[i].(int) != i+100 {
			t.Fatalf("collectives interfered: %v %v", a, b)
		}
	}
}

func TestPhaseAccounting(t *testing.T) {
	w := testWorld(1)
	ranks := w.Run(func(r *Rank) {
		r.SetPhase(PhaseFlow)
		r.SetWorkingSet(1e9) // big: base rate
		r.Compute(29e6)      // 1 second at SP2 base rate
		r.SetPhase(PhaseConnect)
		r.Compute(29e6 / 2)
	})
	r := ranks[0]
	ft := r.PhaseTime(PhaseFlow)
	ct := r.PhaseTime(PhaseConnect)
	if ft < 0.9 || ft > 1.1 {
		t.Errorf("flow time = %v, want ~1", ft)
	}
	if ct < 0.4 || ct > 0.6 {
		t.Errorf("connect time = %v, want ~0.5", ct)
	}
	if r.PhaseFlops(PhaseFlow) != 29e6 {
		t.Errorf("flow flops = %v", r.PhaseFlops(PhaseFlow))
	}
	if r.TotalFlops() != 29e6*1.5 {
		t.Errorf("total flops = %v", r.TotalFlops())
	}
}

func TestTryRecv(t *testing.T) {
	w := testWorld(2)
	var gotEmpty, gotMsg bool
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			_, ok := r.TryRecv(AnyRank, TagUser)
			gotEmpty = !ok
			r.Barrier()
			r.Barrier()
			// After peer's send + barriers, message is physically present.
			_, ok = r.TryRecv(AnyRank, TagUser)
			gotMsg = ok
		} else {
			r.Barrier()
			r.Send(0, TagUser, 42, 8)
			r.Barrier()
		}
	})
	if !gotEmpty {
		t.Error("TryRecv should report no message before send")
	}
	if !gotMsg {
		t.Error("TryRecv should find message after send")
	}
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		if !strings.Contains(p.(string), "boom") {
			t.Errorf("panic %v should mention cause", p)
		}
	}()
	w := testWorld(3)
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
		r.Barrier() // would deadlock without poisoning
	})
}

func TestPanicUnblocksRecv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	w := testWorld(2)
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
		r.Recv(1, TagUser) // would block forever without inbox close
	})
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseFlow: "flow", PhaseMotion: "motion", PhaseConnect: "connect",
		PhaseBalance: "balance", PhaseOther: "other",
	} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestComputeZeroAndNegative(t *testing.T) {
	w := testWorld(1)
	ranks := w.Run(func(r *Rank) {
		r.Compute(0)
		r.Compute(-10)
		r.elapse(-1)
	})
	if ranks[0].Clock != 0 {
		t.Errorf("clock = %v, want 0", ranks[0].Clock)
	}
}

func TestNewWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0, machine.SP2())
}
