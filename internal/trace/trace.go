// Package trace is a virtual-time event tracer for the par runtime. When a
// Recorder is attached to a par.World, every clock advance on every rank —
// compute, modeled memory traffic, message send overhead, receive wait,
// barrier wait, collective synchronization — emits one typed Event into a
// per-rank append-only buffer. Ranks own their buffers exclusively while the
// world runs (no locks on the hot path); the merged stream is analyzed only
// after World.Run returns.
//
// Because every clock mutation emits exactly one event, the events of a rank
// tile its virtual timeline: the sum of event durations equals the rank's
// final clock. That invariant is what makes the three analyses exact rather
// than sampled: Summarize decomposes each rank and phase into busy time
// versus blocked (receive-wait and barrier-wait) time, CriticalPath chains
// backward through message and barrier dependencies to the sequence of work
// that set the makespan, and WriteChromeTrace exports the whole timeline in
// the Chrome trace-event (catapult) JSON format for chrome://tracing or
// Perfetto.
//
// The package depends only on the standard library; par imports trace, not
// the other way around, so Phase and Tag appear here as plain ints labeled
// through a caller-provided function.
package trace

import "slices"

// Kind classifies an event. Busy kinds advance the clock by modeled work;
// wait kinds advance it by blocking on a peer; marker kinds carry no time.
type Kind uint8

const (
	// KindCompute is floating-point work charged through Rank.Compute.
	KindCompute Kind = iota
	// KindElapse is modeled data movement without a message (redistribution
	// traffic, checkpoint writes) charged through Rank.Transfer.
	KindElapse
	// KindSend is the sender-side software overhead of a message; its Flow
	// field links it to the matching KindRecv on the destination rank.
	KindSend
	// KindRecv marks a message match completing on the receiver (zero
	// duration; any blocked time is the preceding KindWait).
	KindRecv
	// KindWait is time blocked in a receive for a message still in flight;
	// Peer is the sender and Flow links to the KindSend that bounds it.
	KindWait
	// KindBarrier is time blocked in a barrier or collective rendezvous
	// waiting for slower ranks; Peer is the rank whose clock set the
	// release time.
	KindBarrier
	// KindSync is the modeled log-tree synchronization cost every rank pays
	// after a barrier rendezvous.
	KindSync
	// KindGather is the modeled data-movement cost of an AllGather-family
	// collective.
	KindGather
	// KindPhase is a zero-duration marker recording a phase change.
	KindPhase
	// KindFaultWait is virtual time lost to the fault layer: retry backoff
	// after a dropped message acknowledgment, or the grace period spent
	// discovering a loss in a timed-out receive. Peer is the unreachable
	// rank; Tag is the afflicted message stream.
	KindFaultWait
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindElapse:
		return "elapse"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindWait:
		return "recv-wait"
	case KindBarrier:
		return "barrier-wait"
	case KindSync:
		return "barrier-sync"
	case KindGather:
		return "allgather"
	case KindPhase:
		return "phase"
	case KindFaultWait:
		return "fault-wait"
	}
	return "kind(?)"
}

// Busy reports whether the kind represents productive (non-blocked) virtual
// time: modeled computation, memory traffic, send overhead, or the
// synchronization work of collectives.
func (k Kind) Busy() bool {
	switch k {
	case KindCompute, KindElapse, KindSend, KindSync, KindGather:
		return true
	}
	return false
}

// Wait reports whether the kind represents time blocked on a peer.
func (k Kind) Wait() bool { return k == KindWait || k == KindBarrier || k == KindFaultWait }

// NoPeer is the Peer value of events not caused by another rank.
const NoPeer = -1

// Event is one virtual-time interval (or marker) on one rank's timeline.
type Event struct {
	Kind  Kind
	Rank  int32
	Phase int32
	// Tag is the message tag for send/recv/wait events; 0 otherwise.
	Tag int32
	// Peer is the other rank involved: destination for sends, source for
	// receives and receive-waits, and the clock-setting (slowest) rank for
	// barrier waits. NoPeer when not applicable.
	Peer int32
	// Bytes is the modeled wire size for message and gather events.
	Bytes int64
	// Flow links a KindSend to its matching KindWait/KindRecv across ranks
	// (unique per message); 0 when not applicable.
	Flow uint64
	// Start is the rank's virtual clock when the event began, in seconds.
	Start float64
	// Dur is the virtual duration in seconds (0 for markers).
	Dur float64
}

// End returns the event's ending virtual time.
func (e Event) End() float64 { return e.Start + e.Dur }

// RankBuf is one rank's private event buffer. Exactly one goroutine appends
// to a RankBuf while the world runs, so Emit takes no locks.
type RankBuf struct {
	ev []Event
	// pad keeps adjacent ranks' buffers off a shared cache line so
	// concurrent appends do not false-share.
	_ [64 - 24%64]byte
}

// Emit appends an event. Amortized O(1); the only cost besides the append is
// occasional slice growth.
func (b *RankBuf) Emit(e Event) {
	if len(b.ev) == cap(b.ev) {
		b.grow()
	}
	b.ev = append(b.ev, e)
}

// grow doubles the buffer: append grows a long slice by only a quarter, so
// a buffer filled from empty would allocate about five times its final size.
func (b *RankBuf) grow() { b.ev = slices.Grow(b.ev, max(len(b.ev), 64)) }

// Len returns the number of events recorded so far.
func (b *RankBuf) Len() int { return len(b.ev) }

// Recorder collects the per-rank event streams of one run plus the metadata
// the analyses need. Attach it through core.Config.Trace (or par's
// World.SetTrace); a Recorder may be reused across runs — each attachment
// resets it, keeping its buffers' capacity.
type Recorder struct {
	bufs       []RankBuf
	finalClock []float64
	phaseLabel func(int) string
	tagLabel   func(int) string

	// Measurement window [winStart, winEnd] in virtual seconds; analyses
	// clip to it when set so they reconcile with statistics that exclude
	// preprocessing. Zero window means "whole run".
	winStart, winEnd float64
	hasWindow        bool
}

// NewRecorder returns an empty recorder. It becomes usable once attached to
// a world (which calls Reset with the rank count).
func NewRecorder() *Recorder { return &Recorder{} }

// Reset clears all state and sizes the recorder for n ranks. Each rank's
// buffer keeps the capacity an earlier run grew it to, so a recorder reused
// for a run of the same size emits without growing.
func (rec *Recorder) Reset(n int) {
	if cap(rec.bufs) < n {
		bufs := make([]RankBuf, n)
		copy(bufs, rec.bufs[:cap(rec.bufs)])
		rec.bufs = bufs
	}
	rec.bufs = rec.bufs[:n]
	for i := range rec.bufs {
		rec.bufs[i].ev = rec.bufs[i].ev[:0]
	}
	if cap(rec.finalClock) < n {
		rec.finalClock = make([]float64, n)
	}
	rec.finalClock = rec.finalClock[:n]
	clear(rec.finalClock)
	rec.winStart, rec.winEnd, rec.hasWindow = 0, 0, false
}

// NRanks returns the number of rank buffers (0 before attachment).
func (rec *Recorder) NRanks() int { return len(rec.bufs) }

// Buf returns rank's private buffer for the runtime to emit into.
func (rec *Recorder) Buf(rank int) *RankBuf { return &rec.bufs[rank] }

// Events returns rank's recorded events in emission (virtual-time) order.
// The returned slice is owned by the recorder and valid until its next
// Reset; callers must not mutate it.
func (rec *Recorder) Events(rank int) []Event { return rec.bufs[rank].ev }

// SetFinalClock records rank's clock at the end of the run.
func (rec *Recorder) SetFinalClock(rank int, clock float64) { rec.finalClock[rank] = clock }

// FinalClock returns rank's clock at the end of the run.
func (rec *Recorder) FinalClock(rank int) float64 { return rec.finalClock[rank] }

// SetPhaseLabel installs the function used to name phase ints in reports and
// exports (par installs the par.Phase stringer on attachment).
func (rec *Recorder) SetPhaseLabel(f func(int) string) { rec.phaseLabel = f }

// SetTagLabel installs the function used to name message tags in exports.
func (rec *Recorder) SetTagLabel(f func(int) string) { rec.tagLabel = f }

// PhaseLabel names a phase int, falling back to "phaseN".
func (rec *Recorder) PhaseLabel(p int) string {
	if rec.phaseLabel != nil {
		return rec.phaseLabel(p)
	}
	return "phase" + itoa(p)
}

// TagLabel names a message tag int, falling back to "tagN".
func (rec *Recorder) TagLabel(t int) string {
	if rec.tagLabel != nil {
		return rec.tagLabel(t)
	}
	return "tag" + itoa(t)
}

// SetWindow restricts analyses to the virtual-time interval [start, end] —
// core marks the measured timestep loop this way so trace summaries
// reconcile with Result.TotalTime, which excludes preprocessing.
func (rec *Recorder) SetWindow(start, end float64) {
	rec.winStart, rec.winEnd, rec.hasWindow = start, end, true
}

// Window returns the analysis window. When none was set it spans from 0 to
// the maximum final clock.
func (rec *Recorder) Window() (start, end float64) {
	if rec.hasWindow {
		return rec.winStart, rec.winEnd
	}
	end = 0
	for _, c := range rec.finalClock {
		if c > end {
			end = c
		}
	}
	return 0, end
}

// MaxPhase returns the largest phase int seen in any event (-1 if none).
func (rec *Recorder) MaxPhase() int {
	maxP := -1
	for r := range rec.bufs {
		for _, e := range rec.bufs[r].ev {
			if int(e.Phase) > maxP {
				maxP = int(e.Phase)
			}
		}
	}
	return maxP
}

// itoa avoids importing strconv into every caller path for label fallbacks.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
