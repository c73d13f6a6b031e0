package core

import (
	"overd/internal/machine"
	"overd/internal/par"
)

// modules are the phases a timestep's statistics are kept in, in the order
// of StepStats and Result.
var modules = [4]par.Phase{par.PhaseFlow, par.PhaseMotion, par.PhaseConnect, par.PhaseBalance}

// snapshot is what a run's time statistics are made of: rank 0's clock, and
// its time and blocked time in each module, read where the module barriers
// have just made every clock equal.
type snapshot struct {
	clock     float64
	mod, wait [4]float64
}

func snap(r *par.Rank) snapshot {
	s := snapshot{clock: r.Clock}
	for i, p := range modules {
		s.mod[i] = r.PhaseTime(p)
		s.wait[i] = r.WaitTime(p)
	}
	return s
}

// account reads rank 0's statistics and marks the place on the run's tape,
// so that a re-timing reads them at the same place.
func account(r *par.Rank) snapshot {
	r.Mark()
	return snap(r)
}

// ledger turns the snapshots rank 0 takes — one where measurement starts,
// one at the end of every step — into the times of a Result. The live run
// and a re-timing both fill their times through it.
type ledger struct {
	start, prev snapshot
}

func (l *ledger) open(s snapshot) { l.start, l.prev = s, s }

// closeStep fills st's times with what the step added since the last
// snapshot.
func (l *ledger) closeStep(s snapshot, st *StepStats) {
	st.Flow = s.mod[0] - l.prev.mod[0]
	st.Motion = s.mod[1] - l.prev.mod[1]
	st.Connect = s.mod[2] - l.prev.mod[2]
	st.Balance = s.mod[3] - l.prev.mod[3]
	st.FlowWait = s.wait[0] - l.prev.wait[0]
	st.MotionWait = s.wait[1] - l.prev.wait[1]
	st.ConnectWait = s.wait[2] - l.prev.wait[2]
	st.BalanceWait = s.wait[3] - l.prev.wait[3]
	l.prev = s
}

// closeRun fills res's times with everything since measurement started.
func (l *ledger) closeRun(s snapshot, res *Result) {
	res.TotalTime = s.clock - l.start.clock
	res.FlowTime = s.mod[0] - l.start.mod[0]
	res.MotionTime = s.mod[1] - l.start.mod[1]
	res.ConnectTime = s.mod[2] - l.start.mod[2]
	res.BalanceTime = s.mod[3] - l.start.mod[3]
	res.FlowWaitTime = s.wait[0] - l.start.wait[0]
	res.MotionWaitTime = s.wait[1] - l.start.wait[1]
	res.ConnectWaitTime = s.wait[2] - l.start.wait[2]
	res.BalanceWaitTime = s.wait[3] - l.start.wait[3]
}

// tally is what a rank has been charged so far, in the terms Run accounts
// an attempt in.
type tally struct {
	flops            float64
	dropped, retries int
	faultWait        float64
}

func tallyOf(r *par.Rank) tally {
	return tally{flops: r.TotalFlops(), dropped: r.Dropped, retries: r.Retries,
		faultWait: r.TotalFaultWaitTime()}
}

// retime returns what executing res's run on machine m would have returned,
// from the tape res's run left: the tape is replayed under m, and rank 0's
// snapshots — taken at the marks account left — go through the ledger as the
// live ones did. Everything in a Result that is not a time is a property of
// the computation, not of the machine, and is shared with res.
func retime(res *Result, tape *par.Tape, m machine.Model) (*Result, error) {
	out := *res
	out.Config.Machine = m
	out.Steps = append([]StepStats(nil), res.Steps...)
	var led ledger
	step := -1
	_, err := tape.Retime(m, func(r *par.Rank) {
		s := snap(r)
		if step < 0 {
			led.open(s)
		} else {
			led.closeStep(s, &out.Steps[step])
			if step == len(out.Steps)-1 {
				led.closeRun(s, &out)
			}
		}
		step++
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}
