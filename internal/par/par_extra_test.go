package par

import (
	"testing"

	"overd/internal/machine"
)

func TestSendInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := testWorld(2)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(7, TagUser, nil, 0)
		}
	})
}

func TestTryRecvSpecificSource(t *testing.T) {
	w := testWorld(3)
	var fromRight, fromWrong bool
	w.Run(func(r *Rank) {
		switch r.ID {
		case 1, 2:
			r.Send(0, TagUser, r.ID, 8)
			r.Barrier()
		case 0:
			r.Barrier()
			// Only accept from rank 2; rank 1's message stays pending.
			if m, ok := r.TryRecv(2, TagUser); ok {
				fromRight = m.From == 2
			}
			if m, ok := r.TryRecv(1, TagUser); ok {
				fromWrong = m.From != 1
			}
		}
	})
	if !fromRight {
		t.Error("should receive from rank 2")
	}
	if fromWrong {
		t.Error("source filtering broken")
	}
}

func TestClockMonotonicUnderTraffic(t *testing.T) {
	// Clocks never run backwards regardless of message interleaving.
	w := NewWorld(4, machine.SP())
	ranks := w.Run(func(r *Rank) {
		prev := r.Clock
		check := func() {
			if r.Clock < prev {
				t.Errorf("rank %d clock went backwards", r.ID)
			}
			prev = r.Clock
		}
		for i := 0; i < 20; i++ {
			r.Compute(1e5)
			check()
			r.Send((r.ID+1)%4, TagUser, i, 64)
			check()
			r.Recv((r.ID+3)%4, TagUser)
			check()
			if i%5 == 0 {
				r.Barrier()
				check()
			}
		}
	})
	for _, r := range ranks {
		if r.Clock <= 0 {
			t.Errorf("rank %d clock %v", r.ID, r.Clock)
		}
	}
}

func TestMessageOrderPreservedPerSender(t *testing.T) {
	w := testWorld(2)
	var got []int
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, TagUser, i, 8)
			}
		} else {
			for i := 0; i < 10; i++ {
				got = append(got, r.Recv(0, TagUser).Data.(int))
			}
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("message order broken: %v", got)
		}
	}
}

// Transfer costs CommTime of its bytes, in the phase it is made in.
func TestTransferAttributesPhase(t *testing.T) {
	w := testWorld(1)
	ranks := w.Run(func(r *Rank) {
		r.SetPhase(PhaseBalance)
		r.Transfer(4000)
		r.SetPhase(PhaseMotion)
		r.Transfer(0)
		r.Transfer(-8)
	})
	m, r := w.Model(), ranks[0]
	if r.PhaseTime(PhaseBalance) != m.CommTime(4000) || r.PhaseTime(PhaseMotion) != 2*m.LatencySec {
		t.Errorf("phase times: balance %v motion %v",
			r.PhaseTime(PhaseBalance), r.PhaseTime(PhaseMotion))
	}
	if r.Clock != m.CommTime(4000)+2*m.LatencySec {
		t.Errorf("clock %v", r.Clock)
	}
	if r.TotalFlops() != 0 {
		t.Errorf("a transfer charged %v flops", r.TotalFlops())
	}
}

func TestBarrierCostGrowsWithWorldSize(t *testing.T) {
	cost := func(n int) float64 {
		w := NewWorld(n, machine.SP2())
		ranks := w.Run(func(r *Rank) { r.Barrier() })
		return ranks[0].Clock
	}
	if n1, n16 := cost(2), cost(16); n16 <= n1 {
		t.Errorf("barrier on 16 ranks (%v) should cost more than on 2 (%v)", n16, n1)
	}
	// A single-rank barrier is free.
	if c := cost(1); c != 0 {
		t.Errorf("1-rank barrier cost %v", c)
	}
}

func TestCommTimeScalesWithBytes(t *testing.T) {
	w := testWorld(2)
	var small, large float64
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagUser, nil, 100)
			r.Send(1, TagUser, nil, 1<<20)
		} else {
			m1 := r.Recv(0, TagUser)
			m2 := r.Recv(0, TagUser)
			small = m1.Arrive
			large = m2.Arrive
		}
	})
	if large-small < 0.9*float64(1<<20)/40e6 {
		t.Errorf("1MB message should arrive much later: %v vs %v", small, large)
	}
}
