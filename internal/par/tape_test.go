package par

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"overd/internal/machine"
)

const patternRanks = 6

// pattern is a par-only program whose every size comes from seed and none
// from a clock: a ring halo, a pipeline chain there and back, sends drained
// by wildcard after a barrier (large enough to still be in flight then, so
// that the order they are taken in shows in the waits), replies to the
// drained, self-sends, transfers and collectives, across changing phases and
// working sets.
func pattern(seed int64) func(r *Rank) {
	return func(r *Rank) {
		n := r.Size()
		rng := rand.New(rand.NewSource(seed*int64(n) + int64(r.ID)))
		left, right := (r.ID+n-1)%n, (r.ID+1)%n
		for round := 0; round < 3; round++ {
			r.SetPhase(Phase(round % int(numPhases)))
			r.SetWorkingSet(float64(rng.Intn(4 << 20)))
			r.Compute(float64(1 + rng.Intn(200000)))

			// Ring halo.
			r.Send(right, TagHalo, nil, rng.Intn(4096))
			r.Send(left, TagHalo, nil, rng.Intn(4096))
			r.Recv(left, TagHalo)
			r.Recv(right, TagHalo)

			// Pipeline chain, forward then back.
			r.SetPhase(PhaseFlow)
			for _, dir := range [2]int{1, -1} {
				prev, next := r.ID-dir, r.ID+dir
				if prev >= 0 && prev < n {
					r.Recv(prev, TagPipeline)
				}
				r.Compute(float64(1 + rng.Intn(50000)))
				if next >= 0 && next < n {
					r.Send(next, TagPipeline, nil, 40*(1+rng.Intn(64)))
				}
			}
			r.Mark()

			// Requests to seeded destinations (self included), drained after
			// a barrier; every request is answered, and the answers drained
			// after another.
			r.SetPhase(PhaseConnect)
			for k := rng.Intn(2 * n); k > 0; k-- {
				r.Send(rng.Intn(n), TagSearchReq, nil, rng.Intn(1<<18))
			}
			r.Barrier()
			var from []int
			for {
				m, ok := r.TryRecv(AnyRank, TagSearchReq)
				if !ok {
					break
				}
				from = append(from, m.From)
			}
			// Served by sender, as dcf does: the order of a drain is the one
			// thing that depends on the machine.
			sort.Ints(from)
			r.Compute(float64(100 * len(from)))
			for _, dst := range from {
				r.Send(dst, TagSearchRep, nil, 32)
			}
			r.Barrier()
			for {
				if _, ok := r.TryRecv(AnyRank, TagSearchRep); !ok {
					break
				}
			}

			// Collectives and a transfer.
			r.SetPhase(PhaseBalance)
			r.AllReduceSum(float64(r.ID))
			r.AllGather(r.ID, 8*(1+round))
			r.Transfer(rng.Intn(1 << 16))
			r.AllReduceMax(float64(round))
		}
		r.Mark()
	}
}

// rankState is everything a rank's run leaves behind that a machine decides.
type rankState struct {
	clock                float64
	time, flops          [numPhases]float64
	recvWait, barWait    [numPhases]float64
	sends                uint64
	dropped, retries, id int
}

func stateOf(r *Rank) rankState {
	return rankState{r.Clock, r.phaseTime, r.phaseFlops, r.waitRecv, r.waitBar, r.sendSeq, r.Dropped, r.Retries, r.ID}
}

func states(ranks []*Rank) []rankState {
	out := make([]rankState, len(ranks))
	for i, r := range ranks {
		out[i] = stateOf(r)
	}
	return out
}

func recordPattern(t testing.TB, seed int64, m machine.Model) (*Tape, []rankState) {
	t.Helper()
	tape := NewTape()
	w := NewWorld(patternRanks, m)
	w.SetTape(tape)
	ranks := w.Run(pattern(seed))
	if reason, void := tape.Voided(); void {
		t.Fatalf("tape void: %s", reason)
	}
	return tape, states(ranks)
}

func equalStates(t testing.TB, what string, got, want []rankState) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: rank %d\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// within maps any float the fuzzer offers into [lo, hi].
func within(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	return math.Min(math.Max(math.Abs(x), lo), hi)
}

// FuzzRetime: executing the pattern under any physically bounded machine
// equals re-timing, under that machine, a tape of it recorded on the SP2 —
// every clock, phase time and wait of every rank, bit for bit.
func FuzzRetime(f *testing.F) {
	for seed, m := range []machine.Model{machine.SP2(), machine.SP(), machine.YMP864(), machine.C90()} {
		f.Add(int64(seed), m.LatencySec, m.BandwidthBps, m.BaseMflops, m.CacheBoost, m.CacheBytes, m.ShortLoopBytes)
	}
	f.Fuzz(func(t *testing.T, seed int64, latency, bandwidth, base, boost, cache, short float64) {
		m := machine.Model{
			Name:           "fuzzed",
			LatencySec:     within(latency, 0, 1e-2),
			BandwidthBps:   within(bandwidth, 1e5, 1e12),
			BaseMflops:     within(base, 1, 1e4),
			CacheBoost:     within(boost, 0, 2),
			CacheBytes:     within(cache, 1, 1<<30),
			ShortLoopBytes: within(short, 0, 1<<24),
		}
		tape, _ := recordPattern(t, seed, machine.SP2())
		want := states(NewWorld(patternRanks, m).Run(pattern(seed)))
		ranks, err := tape.Retime(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalStates(t, "re-timed against executed", states(ranks), want)
	})
}

// A tape changes nothing it records, records the same thing on any machine,
// and calls back at every mark, in each rank's order.
func TestTapeIsInertAndMachineInvariant(t *testing.T) {
	bare := states(NewWorld(patternRanks, machine.SP2()).Run(pattern(7)))
	tape2, taped := recordPattern(t, 7, machine.SP2())
	equalStates(t, "taped against untaped", taped, bare)
	tapeS, _ := recordPattern(t, 7, machine.SP())
	if d := tape2.Diff(tapeS); d != "" {
		t.Errorf("SP2 and SP tapes differ: %s", d)
	}
	other, _ := recordPattern(t, 8, machine.SP2())
	if tape2.Diff(other) == "" {
		t.Error("tapes of two different programs do not differ")
	}

	marks := make([]int, patternRanks)
	ranks, err := tape2.Retime(machine.SP2(), func(r *Rank) { marks[r.ID]++ })
	if err != nil {
		t.Fatal(err)
	}
	equalStates(t, "re-timed under the recording machine", states(ranks), bare)
	for id, n := range marks {
		if n != 4 {
			t.Errorf("rank %d: %d marks called back, want 4", id, n)
		}
	}
}

// What a tape cannot express voids it: a drop, a retry, a rank failure, its
// owner's word. A void tape does not replay.
func TestTapeVoids(t *testing.T) {
	cases := map[string]func(w *World) func(r *Rank){
		"dropped by fault injection": func(w *World) func(r *Rank) {
			w.SetFaults(dropAll{})
			return func(r *Rank) {
				if r.ID == 0 {
					r.Send(1, TagUser, nil, 8)
				} else {
					r.RecvTimeout(0, TagUser, 1e-3)
				}
			}
		},
		"retried under fault injection": func(w *World) func(r *Rank) {
			w.SetFaults(&scriptInjector{dropFirst: 1})
			return func(r *Rank) {
				if r.ID == 0 {
					r.SendReliable(1, TagUser, nil, 8)
				} else {
					r.Recv(0, TagUser)
				}
			}
		},
		"a rank failed": func(w *World) func(r *Rank) {
			return func(r *Rank) {
				if r.ID == 1 {
					panic(Crash{Step: 3})
				}
			}
		},
		"the owner said so": func(w *World) func(r *Rank) {
			return func(r *Rank) {
				if r.ID == 0 {
					w.tape.Void("the owner said so")
				}
			}
		},
	}
	for want, body := range cases {
		tape := NewTape()
		w := testWorld(2)
		w.SetTape(tape)
		w.RunErr(body(w))
		reason, void := tape.Voided()
		if !void || !strings.Contains(reason, want) {
			t.Errorf("%s: void %v, reason %q", want, void, reason)
		}
		if _, err := tape.Retime(machine.SP(), nil); err == nil {
			t.Errorf("%s: a void tape replayed", want)
		}
	}
	var none *Tape
	none.Void("a nil tape takes it silently")
}

// A tape whose receive names a send that never happens reports where the
// replay stuck instead of spinning.
func TestRetimeReportsAStuckTape(t *testing.T) {
	tape := NewTape()
	w := testWorld(2)
	w.SetTape(tape)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, TagUser, nil, 8)
		} else {
			r.Recv(0, TagUser)
		}
	})
	tape.ranks[0].ops = nil // rank 0 never sends
	if _, err := tape.Retime(machine.SP(), nil); err == nil || !strings.Contains(err.Error(), "rank 1 is stuck") {
		t.Errorf("err = %v, want rank 1 stuck", err)
	}
	if _, err := NewTape().Retime(machine.SP(), nil); err == nil {
		t.Error("a tape that was never attached replayed")
	}
}

// With no tape attached the ops a tape would record allocate nothing (the
// guard beside TestUntracedHotPathNoAllocs, which covers Compute, Transfer
// and a cross-rank Send).
func TestNilTapeNoAllocs(t *testing.T) {
	pinOneProc(t)
	testWorld(1).Run(func(r *Rank) {
		r.Send(0, TagUser, nil, 8)
		r.Recv(0, TagUser)
		if n := testing.AllocsPerRun(100, func() {
			r.SetPhase(PhaseFlow)
			r.Mark()
			r.Send(0, TagUser, nil, 8)
			r.Recv(AnyRank, TagUser)
			r.Barrier()
			r.AllReduceSum(1)
		}); n != 0 {
			t.Errorf("untaped SetPhase/Mark/Send/Recv/Barrier/AllReduce allocate %.1f objects/op", n)
		}
	})
}
