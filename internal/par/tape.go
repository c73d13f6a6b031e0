package par

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"overd/internal/machine"
)

// Tape is the machine-independent record of one world's run: per rank, in
// program order, the causes of its virtual time — flops and working set,
// message destinations and bytes, which send each receive matched, where it
// met the other ranks — and none of the times. The clocks are a function of
// the tape and a machine.Model, which Retime evaluates: the second machine
// of an experiment is a replay, not a second execution.
//
// Attach one with World.SetTape before Run. What a tape cannot express — a
// message dropped or retried under an injector, a wait charged by the fault
// layer, a rank failure, or anything its owner says (Void) — voids it, and a
// void tape does not replay.
type Tape struct {
	ranks []rankTape
	void  atomic.Pointer[string]
}

// rankTape is one rank's ops, padded like mailbox: ranks append to adjacent
// entries at once.
type rankTape struct {
	ops []tapeOp
	_   [(cacheLine - unsafe.Sizeof([]tapeOp{})%cacheLine) % cacheLine]byte
}

// add appends op, doubling a full buffer (append's quarter steps would copy
// a long tape many times over).
func (t *rankTape) add(op tapeOp) {
	if len(t.ops) == cap(t.ops) {
		t.ops = slices.Grow(t.ops, max(1024, len(t.ops)))
	}
	t.ops = append(t.ops, op)
}

type opKind uint8

const (
	opCompute     opKind = iota // x flops on a working set of y bytes
	opSend                      // n bytes to peer under tag; the sender's next sequence number
	opRecv                      // the message peer sent n-th, under tag; wild if any sender would have done
	opTransfer                  // n bytes moved without a message
	opSync                      // a rendezvous of all ranks
	opBarrierCost               // the latency tree of a Barrier
	opGatherCost                // the tree of a gather of n bytes per rank
	opSetPhase                  // time from here on belongs to phase peer
	opMark                      // Rank.Mark
)

type tapeOp struct {
	kind opKind
	wild bool
	peer int32
	tag  int32
	n    int64
	x, y float64
}

func (k opKind) String() string {
	return [...]string{"Compute", "Send", "Recv", "Transfer", "Sync", "BarrierCost", "GatherCost", "SetPhase", "Mark"}[k]
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// SetTape attaches a tape before Run, emptied for this world; what it held
// is lost and the memory that held it is recorded over. Pass nil to detach.
func (w *World) SetTape(t *Tape) {
	w.tape = t
	if t == nil {
		return
	}
	if cap(t.ranks) < w.n {
		t.ranks = append(t.ranks[:cap(t.ranks)], make([]rankTape, w.n-cap(t.ranks))...)
	}
	t.ranks = t.ranks[:w.n]
	for i := range t.ranks {
		t.ranks[i].ops = t.ranks[i].ops[:0]
	}
	t.void.Store(nil)
}

// Mark notes this point of the rank's program on the tape; Retime calls back
// when the rank reaches it. Without a tape it does nothing.
func (r *Rank) Mark() {
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opMark})
	}
}

// Void declares that the run did something the tape does not record, so a
// replay would not reproduce it. The first reason given is kept. Safe from
// any goroutine, and on a nil tape.
func (t *Tape) Void(reason string) {
	if t != nil && t.void.Load() == nil {
		first := reason // escapes here, not on every call
		t.void.CompareAndSwap(nil, &first)
	}
}

// Voided reports whether the tape is void, and why.
func (t *Tape) Voided() (reason string, void bool) {
	if p := t.void.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// drainGroup returns the end of the drain group that starts at ops[i]: the
// maximal run of consecutive wildcard receives of one tag. A receive from a
// named sender is a group of one.
func drainGroup(ops []tapeOp, i int) int {
	j := i + 1
	if ops[i].wild {
		for j < len(ops) && ops[j].kind == opRecv && ops[j].wild && ops[j].tag == ops[i].tag {
			j++
		}
	}
	return j
}

// Diff compares two tapes op for op, rank by rank, up to the order inside a
// drain group (which is a matter of arrival times, and so of the machine),
// and describes the first difference; it returns "" when there is none. Two
// runs of one program on two machines have equal tapes exactly when nothing
// the program did depended on its clocks.
func (t *Tape) Diff(u *Tape) string {
	if len(t.ranks) != len(u.ranks) {
		return fmt.Sprintf("%d ranks against %d", len(t.ranks), len(u.ranks))
	}
	var ga, gb []tapeOp
	for id := range t.ranks {
		a, b := t.ranks[id].ops, u.ranks[id].ops
		if len(a) != len(b) {
			return fmt.Sprintf("rank %d: %d ops against %d", id, len(a), len(b))
		}
		for i := 0; i < len(a); {
			j := i + 1
			if a[i].kind == opRecv && b[i].kind == opRecv {
				jb := drainGroup(b, i)
				if j = drainGroup(a, i); j != jb {
					return fmt.Sprintf("rank %d op %d: drain groups of %d and %d receives", id, i, j-i, jb-i)
				}
			}
			ga, gb = bySend(ga, a[i:j]), bySend(gb, b[i:j])
			for k := range ga {
				if ga[k] != gb[k] {
					return fmt.Sprintf("rank %d op %d: %+v against %+v", id, i+k, ga[k], gb[k])
				}
			}
			i = j
		}
	}
	return ""
}

// bySend copies a drain group into buf in (sender, sequence) order.
func bySend(buf, group []tapeOp) []tapeOp {
	buf = append(buf[:0], group...)
	if len(buf) > 1 {
		slices.SortFunc(buf, func(a, b tapeOp) int {
			return cmp.Or(cmp.Compare(a.peer, b.peer), cmp.Compare(a.n, b.n))
		})
	}
	return buf
}

// Retime replays the tape under model m and returns the ranks as that run
// would have left them: every clock, phase time and wait, bit for bit what
// executing the program on m produces, because the replay moves the clocks
// with the functions the live ranks call. onMark, when non-nil, is called as
// each rank reaches a Mark, with that rank.
//
// One goroutine advances each rank in turn until it blocks. A receive
// resolves once its sender has passed the matching send. Within a drain
// group the receives are taken in the order the live wildcard match would
// have chosen under m — earliest arrival first (Msg.before) — not the order
// recorded: that order is the only thing on a tape that depends on the
// machine. It is the live order only if every message of the group had been
// delivered before the first receive and no other could match, which is what
// a barrier between the sends and the drain guarantees (dcf.Solve drains
// after one) and nothing less does.
func (t *Tape) Retime(m machine.Model, onMark func(r *Rank)) ([]*Rank, error) {
	if reason, void := t.Voided(); void {
		return nil, fmt.Errorf("par: the tape is void: %s", reason)
	}
	n := len(t.ranks)
	if n == 0 {
		return nil, errors.New("par: the tape was never attached to a world")
	}
	w := &World{n: n, model: m}
	ranks := make([]*Rank, n)
	for i := range ranks {
		ranks[i] = newRank(i, w)
	}
	next := make([]int, n)         // each rank's next op
	arrive := make([][]float64, n) // when each rank's sends arrive, by sequence number less one
	waiting := make([]bool, n)     // the rank has brought its clock to the rendezvous
	var meet latest
	var group []Msg
	for {
		moved, left := false, 0
		for id, r := range ranks {
			ops := t.ranks[id].ops
			at := next[id]
		rank:
			for at < len(ops) {
				op := &ops[at]
				switch op.kind {
				case opCompute:
					r.workingSet = op.y
					r.Compute(op.x)
				case opSend:
					var msg Msg
					r.stamp(&msg, int(op.peer), Tag(op.tag), nil, int(op.n))
					r.post(&msg)
					arrive[id] = append(arrive[id], msg.Arrive)
				case opRecv:
					end := drainGroup(ops, at)
					group = group[:0]
					for _, rc := range ops[at:end] {
						sent := arrive[rc.peer]
						if int64(len(sent)) < rc.n {
							break rank // the sender has not got there yet
						}
						group = append(group, Msg{From: int(rc.peer), To: id, Tag: Tag(rc.tag),
							Arrive: sent[rc.n-1], flow: flowID(int(rc.peer), uint64(rc.n))})
					}
					if len(group) > 1 {
						slices.SortFunc(group, func(a, b Msg) int {
							if a.before(&b) {
								return -1
							}
							return 1
						})
					}
					for _, msg := range group {
						r.recvAdvance(msg)
					}
					at = end - 1
				case opTransfer:
					r.Transfer(int(op.n))
				case opSync:
					if !waiting[id] {
						waiting[id] = true
						meet.offer(r.Clock, id)
					}
					break rank // released below, once every rank is here
				case opBarrierCost:
					r.barrierCost()
				case opGatherCost:
					r.gatherCost(int(op.n))
				case opSetPhase:
					r.SetPhase(Phase(op.peer))
				case opMark:
					if onMark != nil {
						onMark(r)
					}
				}
				at++
			}
			if at != next[id] {
				next[id], moved = at, true
			}
			if at < len(ops) {
				left++
			}
		}
		switch {
		case meet.n == n:
			for id, r := range ranks {
				r.syncTo(meet.clock, meet.rank)
				waiting[id] = false
				next[id]++
			}
			meet = latest{}
		case left == 0:
			return ranks, nil
		case !moved:
			for id := range ranks {
				if at := next[id]; at < len(t.ranks[id].ops) {
					return nil, fmt.Errorf("par: the tape does not replay: rank %d is stuck at op %d, %+v", id, at, t.ranks[id].ops[at])
				}
			}
		}
	}
}
