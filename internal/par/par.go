// Package par is a message-passing runtime modeled on the MPI usage of the
// paper's codes. Each rank ("processor") runs as a goroutine; messages are
// delivered over channels. Alongside the real data movement, every rank
// carries a virtual clock advanced by a machine model (see package machine):
// computation advances the local clock by flops/rate, and a receive completes
// at max(local clock, sender clock at send + latency + bytes/bandwidth) — the
// standard LogP-style logical-time rule. Barriers synchronize all clocks to
// the maximum. This lets the repository execute the paper's real algorithms
// at full fidelity while measuring them on machines (IBM SP2, IBM SP, Cray
// YMP) that are simulated rather than physically present.
package par

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"overd/internal/machine"
	"overd/internal/trace"
)

// Phase labels the solution module that virtual time is attributed to,
// mirroring the paper's breakdown of each timestep into flow solution,
// grid motion, and domain-connectivity modules.
type Phase int

// Phases of an OVERFLOW-D1 timestep plus bookkeeping categories.
const (
	PhaseFlow    Phase = iota // flow solution (OVERFLOW analog)
	PhaseMotion               // grid motion (SIXDOF analog)
	PhaseConnect              // domain connectivity (DCF3D analog)
	PhaseBalance              // load-balancer work and repartition traffic
	PhaseOther                // setup and uncategorized
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseFlow:
		return "flow"
	case PhaseMotion:
		return "motion"
	case PhaseConnect:
		return "connect"
	case PhaseBalance:
		return "balance"
	case PhaseOther:
		return "other"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Tag distinguishes message streams, like an MPI tag.
type Tag int

// Message tags used across the repository. User code may define more
// starting at TagUser.
const (
	TagHalo       Tag = iota + 1 // flow-solver halo exchange
	TagPipeline                  // pipelined implicit line solves
	TagBBox                      // connectivity bounding-box exchange
	TagSearchReq                 // donor search request
	TagSearchRep                 // donor search reply
	TagForward                   // forwarded search request
	TagCollective                // internal: broadcasts and reductions
	TagRepart                    // load-balancer data redistribution
	TagUser       Tag = 100
)

// Msg is a delivered message. Data crosses ranks by reference — as in a real
// distributed code the receiver must not assume it may mutate shared backing
// arrays; payloads are treated as read-only by convention.
type Msg struct {
	From, To int
	Tag      Tag
	Data     any
	// Bytes is the modeled wire size used for timing.
	Bytes int
	// Arrive is the virtual time at which the message is available at the
	// receiver (sender clock at send + modeled transfer time).
	Arrive float64
	// Lost marks a fault-injected tombstone: the payload was dropped on the
	// wire (Data is nil) but the loss itself is deterministically observable
	// at the receiver, which is what lets RecvTimeout detect a drop in
	// virtual time without a wall-clock timeout.
	Lost bool
	// flow uniquely identifies the message for send→recv tracing edges.
	flow uint64
}

// Injector decides, per physical message attempt, whether the fault layer
// drops it. Implementations must be deterministic functions of their
// arguments (see internal/fault). Drop is called from the sender's
// goroutine only.
type Injector interface {
	Drop(from, to, tag int, seq uint64) bool
}

// Crash is the panic value a rank raises to model its own failure (an
// injected crash). World.RunErr converts it into a typed *RankFailure so
// callers can checkpoint/restart instead of dying.
type Crash struct {
	// Step is the timestep at which the rank died.
	Step int
	// Clock is the rank's virtual time at death.
	Clock float64
}

// RankFailure is the typed error RunErr returns when a rank panicked: the
// root-cause rank and its panic value, with poison-induced secondary
// failures on peer ranks filtered out.
type RankFailure struct {
	Rank  int
	Cause any
}

// Error formats exactly like the historic World.Run panic string.
func (e *RankFailure) Error() string {
	return fmt.Sprintf("par: rank %d panicked: %v", e.Rank, e.Cause)
}

// Crashed reports whether the failure was a modeled crash (a Crash panic)
// and returns it.
func (e *RankFailure) Crashed() (Crash, bool) {
	c, ok := e.Cause.(Crash)
	return c, ok
}

// mailboxState is the mutable state of one rank's inbox, split out so
// mailbox can pad it to a cache-line multiple: the inbox array is
// contiguous, and without padding a sender appending to rank r's buf would
// false-share with rank r+1's receiver scanning its own head under true
// parallelism.
type mailboxState struct {
	mu   sync.Mutex
	cond sync.Cond
	buf  []Msg // FIFO: buf[head:] are the queued messages
	head int
	// waiting is set (under mu) while the receiver is blocked in cond.Wait,
	// so put can skip the cond-var signal — a futex wake syscall on Linux —
	// for the common case of a receiver that is running, not parked.
	waiting  bool
	poisoned bool
}

// mailbox is one rank's unbounded physical-delivery queue: many senders,
// one receiver. Unlike a fixed-capacity channel it never blocks a sender
// and costs only its high-water mark in memory — a world of n ranks starts
// at a few empty slices instead of n pre-sized channel buffers. The
// receiver's blocking wait observes poison (a peer panic) through the same
// condition variable, so a failure still unblocks the whole world.
type mailbox struct {
	mailboxState
	_ [(cacheLine - unsafe.Sizeof(mailboxState{})%cacheLine) % cacheLine]byte
}

// cacheLine is the false-sharing granularity the padded structures round to.
const cacheLine = 64

// put enqueues m. Never blocks. The cond-var signal is issued only when the
// receiver is actually parked in wait: a missed signal is impossible because
// waiting is set under mu before cond.Wait atomically releases it.
func (mb *mailbox) put(m Msg) {
	mb.mu.Lock()
	mb.buf = append(mb.buf, m)
	wake := mb.waiting
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// takeLocked removes the oldest queued message. The queue restarts at the
// front of buf the moment it empties, so buf never grows past the messages
// that arrive while it is not empty, whatever the receiver does next.
func (mb *mailbox) takeLocked() (Msg, bool) {
	if mb.head == len(mb.buf) {
		return Msg{}, false
	}
	m := mb.buf[mb.head]
	mb.buf[mb.head] = Msg{} // drop the payload reference for the GC
	if mb.head++; mb.head == len(mb.buf) {
		mb.head, mb.buf = 0, mb.buf[:0]
	}
	return m, true
}

// take removes the oldest queued message, if any, without blocking.
func (mb *mailbox) take() (Msg, bool) {
	mb.mu.Lock()
	m, ok := mb.takeLocked()
	mb.mu.Unlock()
	return m, ok
}

// wait blocks until a message is available or the world is poisoned;
// ok == false means poison. When the world has a parallelism gate, the
// receiver hands its run slot back before parking and re-acquires it after
// waking — strictly outside mb.mu, so a sender holding a slot can never
// deadlock against a receiver holding the mailbox lock.
func (mb *mailbox) wait(w *World) (Msg, bool) {
	mb.mu.Lock()
	for {
		if m, ok := mb.takeLocked(); ok {
			mb.mu.Unlock()
			return m, true
		}
		if mb.poisoned {
			mb.mu.Unlock()
			return Msg{}, false
		}
		mb.waiting = true
		if w.gate == nil {
			mb.cond.Wait()
			mb.waiting = false
			continue
		}
		w.gateRelease()
		mb.cond.Wait()
		mb.waiting = false
		mb.mu.Unlock()
		if !w.gateAcquire() {
			// done closed: the world is being poisoned (this mailbox's own
			// flag may lag by a few instructions). Report poison directly.
			return Msg{}, false
		}
		mb.mu.Lock()
	}
}

func (mb *mailbox) isPoisoned() bool {
	mb.mu.Lock()
	p := mb.poisoned
	mb.mu.Unlock()
	return p
}

func (mb *mailbox) poison() {
	mb.mu.Lock()
	mb.poisoned = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// World owns a set of ranks and the shared synchronization state.
type World struct {
	n     int
	model machine.Model

	inbox []mailbox

	bar barrier

	// done is closed by poisonAll after a rank panic; senders and
	// receivers select on it so a failure unblocks the whole world
	// without closing inboxes out from under in-flight sends.
	done      chan struct{}
	closeOnce sync.Once

	// Collective scratch, two of each, picked by the parity of a rank's
	// collective count (see AllGather): anys holds AllGather's slots, floats
	// the rank-major rows of AllGatherFloats and the reductions. floatMu
	// guards the rows while the first rank of a wider gather grows them.
	anys    [2][]any
	floats  [2][]float64
	floatMu sync.Mutex

	// rec, when non-nil, receives one trace event per clock advance on
	// every rank (see package trace). Nil tracing costs one pointer test
	// per operation and no allocations.
	rec *trace.Recorder

	// inj, when non-nil, is the fault layer's message-loss decider. Nil
	// costs one pointer test per send and no allocations.
	inj Injector

	// met, when non-nil, holds the attached metrics registry's prefetched
	// handles (see SetMetrics). Nil costs one pointer test per operation.
	met *worldMetrics

	// gate, when non-nil, is a counting semaphore bounding how many rank
	// goroutines run simultaneously (see SetParallelism). Nil — the default
	// — costs one pointer test per blocking operation and nothing on the
	// non-blocking hot paths.
	gate chan struct{}

	// tape, when non-nil, receives the causes of every rank's time (see
	// Tape). Nil costs one pointer test per operation and no allocations.
	tape *Tape
}

// SetParallelism bounds the number of rank goroutines running host code
// simultaneously to k. It must be called before Run. k <= 0 or k >= Size()
// removes the bound (every rank runnable at once, the default); the Go
// scheduler still multiplexes runnable ranks over GOMAXPROCS.
//
// The gate is a host-side resource control — the workers_per_job hint the
// job service threads down so one tenant's wide world cannot monopolize the
// machine's cores. It never touches a virtual clock: ranks hand their run
// slot back whenever they park (mailbox wait, barrier wait) and re-acquire
// it on wake, so any k produces bit-identical clocks, traces and metrics.
func (w *World) SetParallelism(k int) {
	if k <= 0 || k >= w.n {
		w.gate = nil
		return
	}
	w.gate = make(chan struct{}, k)
}

// gateAcquire claims a run slot, or reports false if the world died (done
// closed by poisonAll) — the only way the gate can ever be unsatisfiable.
func (w *World) gateAcquire() bool {
	select {
	case w.gate <- struct{}{}:
		return true
	case <-w.done:
		return false
	}
}

// gateRelease returns the caller's run slot. The default arm tolerates the
// teardown path where a rank that already gave up its slot panics through a
// deferred release: over-freeing into a dying world is harmless because
// every acquire fails fast once done is closed.
func (w *World) gateRelease() {
	select {
	case <-w.gate:
	default:
	}
}

// SetFaults attaches a message-loss injector before Run. Pass a non-nil
// Injector only; a nil fault layer should simply not call SetFaults.
func (w *World) SetFaults(inj Injector) { w.inj = inj }

// SetTrace attaches an event recorder before Run: the recorder is reset for
// this world's rank count and every rank emits its virtual-time events into
// its own lock-free buffer. Pass nil to detach.
func (w *World) SetTrace(rec *trace.Recorder) {
	w.rec = rec
	if rec != nil {
		rec.Reset(w.n)
		rec.SetPhaseLabel(func(p int) string { return Phase(p).String() })
		rec.SetTagLabel(tagLabel)
	}
}

// tagLabel names the repository's well-known message tags for trace export.
func tagLabel(t int) string {
	switch Tag(t) {
	case TagHalo:
		return "halo"
	case TagPipeline:
		return "pipeline"
	case TagBBox:
		return "bbox"
	case TagSearchReq:
		return "search-req"
	case TagSearchRep:
		return "search-rep"
	case TagForward:
		return "forward"
	case TagCollective:
		return "collective"
	case TagRepart:
		return "repart"
	}
	return fmt.Sprintf("tag%d", t)
}

// poisonAll unblocks every rank after a peer panic: barrier waiters via the
// poison flag, collective waiters via the done channel, and receivers via
// each mailbox's poison flag. Mailboxes are never torn down — senders keep
// enqueueing harmlessly while the world dies.
func (w *World) poisonAll() {
	w.bar.poison()
	w.closeOnce.Do(func() { close(w.done) })
	for i := range w.inbox {
		w.inbox[i].poison()
	}
}

// NewWorld creates a world of n ranks measured against the given machine.
func NewWorld(n int, m machine.Model) *World {
	if n <= 0 {
		panic("par: world size must be positive")
	}
	w := &World{n: n, model: m}
	w.done = make(chan struct{})
	w.inbox = make([]mailbox, n)
	for i := range w.inbox {
		w.inbox[i].cond.L = &w.inbox[i].mu
	}
	w.bar.init(n)
	w.anys = [2][]any{make([]any, n), make([]any, n)}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Model returns the machine model the world is timed against.
func (w *World) Model() machine.Model { return w.model }

// Run executes body on every rank concurrently and returns the per-rank
// states once all ranks have finished. Panics in any rank are propagated.
func (w *World) Run(body func(r *Rank)) []*Rank {
	ranks, err := w.RunErr(body)
	if err != nil {
		panic(err.Error())
	}
	return ranks
}

// RunErr is Run with a typed failure path: when a rank panics, the
// root-cause rank and panic value come back as a *RankFailure instead of a
// process panic, so callers can recover from modeled crashes (Crash panic
// values) with checkpoint/restart. The returned ranks are the per-rank
// states as of the failure (clocks and counters are valid; the run is
// incomplete).
func (w *World) RunErr(body func(r *Rank)) ([]*Rank, error) {
	ranks := make([]*Rank, w.n)
	for i := range ranks {
		ranks[i] = newRank(i, w)
	}
	if w.rec != nil {
		for i := range ranks {
			ranks[i].tr = w.rec.Buf(i)
		}
	}
	if w.tape != nil {
		for i := range ranks {
			ranks[i].tp = &w.tape.ranks[i]
		}
	}
	var wg sync.WaitGroup
	panics := make([]any, w.n)
	for i := range ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r.ID] = p
					// Unblock peers stuck in a barrier or Recv so
					// the process fails loudly instead of deadlocking.
					w.poisonAll()
				}
			}()
			if w.gate != nil {
				// Claim a run slot before executing any rank code. The
				// deferred release runs first on unwind (LIFO), so a
				// panicking rank frees its slot before the recover above
				// poisons the world.
				if !w.gateAcquire() {
					panic("par: world poisoned before rank start")
				}
				defer w.gateRelease()
			}
			body(r)
		}(ranks[i])
	}
	wg.Wait()
	// Report the root-cause panic, not the poison panics it induced in
	// peers blocked on barriers, receives, or sends to closed inboxes. A
	// modeled Crash outranks everything: peers may hit real-looking
	// secondary failures (closed channels) after the poison, and a crash
	// must stay recoverable.
	pick := -1
	for id, p := range panics {
		if p == nil {
			continue
		}
		if _, ok := p.(Crash); ok {
			pick = id
			break
		}
	}
	if pick == -1 {
		for id, p := range panics {
			if p != nil && !inducedPanic(p) {
				pick = id
				break
			}
		}
	}
	if pick == -1 {
		for id, p := range panics {
			if p != nil {
				pick = id
				break
			}
		}
	}
	if pick >= 0 {
		w.tape.Void("a rank failed")
		return ranks, &RankFailure{Rank: pick, Cause: panics[pick]}
	}
	if w.rec != nil {
		for i, r := range ranks {
			w.rec.SetFinalClock(i, r.Clock)
		}
	}
	return ranks, nil
}

// inducedPanic reports whether a rank's panic is a secondary effect of the
// world being poisoned by another rank's failure: our own poison
// diagnostics (which all contain "poisoned"), or the runtime's
// send-on-closed-channel error raised by a Send racing poisonAll.
func inducedPanic(p any) bool {
	if s, ok := p.(string); ok {
		return strings.Contains(s, "poisoned")
	}
	if err, ok := p.(error); ok {
		return strings.Contains(err.Error(), "closed channel")
	}
	return false
}

// Rank is the per-processor handle passed to the Run body. All methods are
// for use only by that rank's goroutine.
//
// Ranks are allocated one by one and lie side by side in their size class;
// padded to whole cache lines (as mailbox is) no rank's send counter shares a
// line with its neighbor's clock, whatever fields are added. (At 2 procs the
// sharing costs par_pattern a tenth of its time.)
type Rank struct {
	rankFields
	_ [(cacheLine - unsafe.Sizeof(rankFields{})%cacheLine) % cacheLine]byte
}

func newRank(id int, w *World) *Rank {
	r := &Rank{}
	r.ID, r.w, r.phase = id, w, PhaseOther
	return r
}

// rankFields is a Rank's fields.
type rankFields struct {
	ID int
	w  *World

	// Clock is the rank's virtual time in seconds.
	Clock float64

	phase      Phase
	phaseTime  [numPhases]float64
	phaseFlops [numPhases]float64

	// waitRecv, waitBar and waitFault decompose each phase's time into
	// blocked categories the aggregate phaseTime cannot express: virtual
	// seconds spent waiting for in-flight messages, for slower ranks at
	// barriers/collectives, and lost to the fault layer (retry backoff,
	// loss-discovery grace). Always maintained, tracer or not.
	waitRecv  [numPhases]float64
	waitBar   [numPhases]float64
	waitFault [numPhases]float64

	// Dropped counts fault-injected message drops charged to this rank as
	// sender (every failed physical attempt, including retries). Retries
	// counts the reliable-send retransmissions among them.
	Dropped int
	Retries int

	// workingSet is the current working-set size in bytes used by the
	// cache model; set by the solver per kernel.
	workingSet float64

	pending []Msg // received from inbox but not yet matched
	// tombs holds fault-injected loss tombstones awaiting discovery by
	// RecvTimeout. Cleared at every barrier rendezvous: lossy exchanges
	// must complete between barriers (true of all protocols here), which
	// bounds tombstone memory in polling protocols that never consume them.
	tombs []Msg

	// tr is this rank's private trace buffer (nil when tracing is off).
	tr *trace.RankBuf
	// tp is this rank's part of the world's tape (nil when none is attached).
	tp *rankTape
	// sendSeq numbers this rank's sends: with the rank id it names a message
	// (flowID), for trace flow edges and for the tape's receive ops.
	sendSeq uint64
	// colls counts this rank's collectives; its parity picks the scratch.
	colls uint64
}

// emit records one trace event; callers must check r.tr != nil first so the
// untraced hot path pays only that branch.
func (r *Rank) emit(k trace.Kind, start, dur float64, tag Tag, peer int, bytes int, flow uint64) {
	r.tr.Emit(trace.Event{
		Kind: k, Rank: int32(r.ID), Phase: int32(r.phase), Tag: int32(tag),
		Peer: int32(peer), Bytes: int64(bytes), Flow: flow, Start: start, Dur: dur,
	})
}

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.w.n }

// Model returns the machine model.
func (r *Rank) Model() machine.Model { return r.w.model }

// SetPhase attributes subsequent virtual time to the given phase.
func (r *Rank) SetPhase(p Phase) {
	r.phase = p
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opSetPhase, peer: int32(p)})
	}
	if r.tr != nil {
		r.emit(trace.KindPhase, r.Clock, 0, 0, trace.NoPeer, 0, 0)
	}
}

// CurrentPhase returns the phase virtual time is being attributed to.
func (r *Rank) CurrentPhase() Phase { return r.phase }

// SetWorkingSet declares the working-set size (bytes) of subsequent compute
// calls, feeding the machine's cache model.
func (r *Rank) SetWorkingSet(bytes float64) { r.workingSet = bytes }

// advance moves the clock forward by dt seconds in the current phase.
func (r *Rank) advance(dt float64) {
	if dt <= 0 {
		return
	}
	r.Clock += dt
	r.phaseTime[r.phase] += dt
}

// recvAdvance moves the clock to a message's arrival time, attributing any
// jump to receive wait (the time this rank was blocked on the wire).
func (r *Rank) recvAdvance(m Msg) {
	if wait := m.Arrive - r.Clock; wait > 0 {
		if r.tr != nil {
			r.emit(trace.KindWait, r.Clock, wait, m.Tag, m.From, m.Bytes, m.flow)
		}
		if r.w.met != nil {
			r.w.met.recvWait.Observe1(r.ID, int(r.phase), wait)
		}
		r.waitRecv[r.phase] += wait
		r.advance(wait)
	}
	if r.tr != nil {
		r.emit(trace.KindRecv, r.Clock, 0, m.Tag, m.From, m.Bytes, m.flow)
	}
}

// Compute charges the rank for the given floating-point work.
func (r *Rank) Compute(flops float64) {
	if flops <= 0 {
		return
	}
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opCompute, x: flops, y: r.workingSet})
	}
	r.phaseFlops[r.phase] += flops
	dt := r.w.model.ComputeTimeFor(r.ID, r.Clock, flops, r.workingSet)
	if r.tr != nil && dt > 0 {
		r.emit(trace.KindCompute, r.Clock, dt, 0, trace.NoPeer, 0, 0)
	}
	r.advance(dt)
}

// Transfer charges the rank the modeled time of moving the given number of
// bytes over the interconnect without a message (redistribution traffic,
// checkpoint writes): CommTime(bytes), no flops. The cost is stated in bytes
// rather than seconds so that it means the same thing on every machine.
func (r *Rank) Transfer(bytes int) {
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opTransfer, n: int64(bytes)})
	}
	dt := r.w.model.CommTime(bytes)
	if r.tr != nil && dt > 0 {
		r.emit(trace.KindElapse, r.Clock, dt, 0, trace.NoPeer, 0, 0)
	}
	r.advance(dt)
}

// PhaseTime returns the virtual seconds accumulated in phase p so far.
func (r *Rank) PhaseTime(p Phase) float64 { return r.phaseTime[p] }

// WaitTime returns the cumulative virtual seconds this rank has spent
// blocked while phase p was active — waiting for in-flight messages,
// waiting at barriers/collectives for slower ranks, and lost to the fault
// layer. It is a subset of PhaseTime(p): the remainder is busy (compute,
// memory, send-overhead) time.
func (r *Rank) WaitTime(p Phase) float64 {
	return r.waitRecv[p] + r.waitBar[p] + r.waitFault[p]
}

// RecvWaitTime returns the blocked-on-message component of WaitTime(p).
func (r *Rank) RecvWaitTime(p Phase) float64 { return r.waitRecv[p] }

// BarrierWaitTime returns the blocked-at-barrier component of WaitTime(p).
func (r *Rank) BarrierWaitTime(p Phase) float64 { return r.waitBar[p] }

// FaultWaitTime returns the fault-layer component of WaitTime(p): reliable
// send retry backoff and RecvTimeout loss-discovery grace.
func (r *Rank) FaultWaitTime(p Phase) float64 { return r.waitFault[p] }

// TotalWaitTime returns the rank's cumulative blocked time over all phases.
func (r *Rank) TotalWaitTime() float64 {
	var s float64
	for p := Phase(0); p < numPhases; p++ {
		s += r.waitRecv[p] + r.waitBar[p] + r.waitFault[p]
	}
	return s
}

// TotalFaultWaitTime returns the rank's cumulative fault-layer wait over
// all phases.
func (r *Rank) TotalFaultWaitTime() float64 {
	var s float64
	for p := Phase(0); p < numPhases; p++ {
		s += r.waitFault[p]
	}
	return s
}

// Faulty reports whether a fault injector is attached to the world, i.e.
// whether messages on this run can be lost. Protocols consult it to decide
// between the plain blocking receive and the loss-tolerant path.
func (r *Rank) Faulty() bool { return r.w.inj != nil }

// chargeFaultWait advances the clock by dt in the current phase,
// attributing it to the fault-wait category.
func (r *Rank) chargeFaultWait(dt float64, tag Tag, peer int) {
	if dt <= 0 {
		return
	}
	r.w.tape.Void("a rank waited on the fault layer")
	if r.tr != nil {
		r.emit(trace.KindFaultWait, r.Clock, dt, tag, peer, 0, 0)
	}
	if r.w.met != nil {
		r.w.met.faultWait.Observe1(r.ID, int(r.phase), dt)
	}
	r.waitFault[r.phase] += dt
	r.advance(dt)
}

// PhaseFlops returns the floating-point operations accumulated in phase p.
func (r *Rank) PhaseFlops(p Phase) float64 { return r.phaseFlops[p] }

// TotalFlops returns all floating-point operations charged to this rank.
func (r *Rank) TotalFlops() float64 {
	var s float64
	for p := Phase(0); p < numPhases; p++ {
		s += r.phaseFlops[p]
	}
	return s
}

// Send transmits data to rank `to` with the given tag. bytes is the modeled
// wire size. Send is asynchronous: the sender is charged only a startup
// overhead, and the message becomes available at the receiver at
// sender-clock + latency + bytes/bandwidth.
func (r *Rank) Send(to int, tag Tag, data any, bytes int) {
	if to < 0 || to >= r.w.n {
		panic(fmt.Sprintf("par: send to invalid rank %d", to))
	}
	var m Msg
	r.stamp(&m, to, tag, data, bytes)
	if to == r.ID {
		r.post(&m)
		r.pending = append(r.pending, m)
		return
	}
	if r.w.inj != nil && r.w.inj.Drop(r.ID, to, int(tag), r.sendSeq) {
		// The payload is lost on the wire; a tombstone still arrives so the
		// receiver can discover the loss in virtual time (RecvTimeout). A
		// plain Recv on a tombstone panics: unguarded protocols must fail
		// loudly, not silently read nil data.
		r.lose(&m)
	}
	r.post(&m)
	r.deliver(to, tag, m)
}

// flowID names a rank's seq-th send; ids of one sender rise with seq.
func flowID(from int, seq uint64) uint64 { return uint64(from+1)<<40 | seq }

// stamp numbers the rank's next message and stamps it with its arrival time
// under the world's model. A self-send is a local buffer hand-off with no
// wire and no messaging-stack traversal — its (tiny) memory cost is already
// inside the compute model — so it is available immediately (asserted by
// TestSelfSendIsFree).
func (r *Rank) stamp(m *Msg, to int, tag Tag, data any, bytes int) {
	r.sendSeq++
	*m = Msg{
		From:   r.ID,
		To:     to,
		Tag:    tag,
		Data:   data,
		Bytes:  bytes,
		Arrive: r.Clock,
		flow:   flowID(r.ID, r.sendSeq),
	}
	if to != r.ID {
		m.Arrive += r.w.model.CommTimeFor(r.ID, to, r.Clock, bytes)
	}
}

// post hands a stamped message to the wire: tape, trace and metrics see the
// send, and the sender pays its software overhead, a fraction of latency. A
// self-send costs the sender nothing (and is never dropped: there is no
// wire to lose it on).
func (r *Rank) post(m *Msg) {
	ov := 0.0
	if m.To != r.ID {
		ov = r.w.model.LatencySec * 0.25
	}
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opSend, peer: int32(m.To), tag: int32(m.Tag), n: int64(m.Bytes)})
	}
	if r.tr != nil {
		r.emit(trace.KindSend, r.Clock, ov, m.Tag, m.To, m.Bytes, m.flow)
	}
	r.countSend(m.Tag, m.Bytes)
	r.advance(ov)
}

// lose turns a message the injector dropped into its tombstone and charges
// the drop to the sender.
func (r *Rank) lose(m *Msg) {
	r.w.tape.Void("a message was dropped by fault injection")
	m.Data, m.Lost = nil, true
	r.Dropped++
	if r.w.met != nil {
		r.w.met.dropped.Add1(r.ID, int(m.Tag), 1)
	}
}

// countSend records one wire hand-off in the metrics plane. It sits at
// exactly the sites that emit trace.KindSend, so windowed totals match the
// summary's MsgsSent/BytesSent columns.
func (r *Rank) countSend(tag Tag, bytes int) {
	if m := r.w.met; m != nil {
		m.msgs.Add2(r.ID, int(r.phase), int(tag), 1)
		m.bytes.Add2(r.ID, int(r.phase), int(tag), float64(bytes))
	}
}

// deliver enqueues a message on the destination inbox. The mailbox is
// unbounded, so a sender never blocks — and never deadlocks against a dead
// world; a poisoned run fails at the next receive or barrier instead.
func (r *Rank) deliver(to int, tag Tag, m Msg) {
	r.w.inbox[to].put(m)
}

// maxSendRetries bounds SendReliable's retransmissions after the first
// dropped attempt.
const maxSendRetries = 3

// SendReliable is Send with a modeled acknowledgment protocol for lossy
// runs: each dropped attempt costs the sender an exponentially backed-off
// ack-timeout (charged to the fault-wait category) before retransmitting,
// up to maxSendRetries retries. It reports whether the payload was
// delivered; on final failure a loss tombstone is delivered instead so the
// receiver side can also discover the loss. With no injector attached (or
// for self-sends, which cannot be lost) it is exactly Send and returns
// true, so loss-tolerant protocols can use it unconditionally without
// perturbing fault-free runs.
func (r *Rank) SendReliable(to int, tag Tag, data any, bytes int) bool {
	if r.w.inj == nil || to == r.ID {
		r.Send(to, tag, data, bytes)
		return true
	}
	if to < 0 || to >= r.w.n {
		panic(fmt.Sprintf("par: send to invalid rank %d", to))
	}
	for attempt := 0; ; attempt++ {
		var m Msg
		r.stamp(&m, to, tag, data, bytes)
		dropped := r.w.inj.Drop(r.ID, to, int(tag), r.sendSeq)
		if !dropped || attempt == maxSendRetries {
			if dropped {
				r.lose(&m)
			}
			r.post(&m)
			r.deliver(to, tag, m)
			return !dropped
		}
		r.w.tape.Void("a send was retried under fault injection")
		r.Dropped++
		r.Retries++
		if r.w.met != nil {
			r.w.met.dropped.Add1(r.ID, int(tag), 1)
			r.w.met.retries.Add1(r.ID, int(tag), 1)
		}
		// Ack timeout: one modeled round trip, doubled per attempt.
		rtt := 2 * r.w.model.CommTimeFor(r.ID, to, r.Clock, bytes)
		r.chargeFaultWait(rtt*float64(uint(1)<<uint(attempt)), tag, to)
	}
}

// Recv blocks until a message with the given tag arrives from rank `from`
// (any rank if from == AnyRank). The local clock advances to the message's
// arrival time if that is later. Receiving a fault-injected loss tombstone
// with plain Recv panics — a protocol that may lose messages must use
// RecvTimeout to handle the loss.
func (r *Rank) Recv(from int, tag Tag) Msg {
	for {
		if m, ok := r.takePending(from, tag); ok {
			r.recvAdvance(m)
			return m
		}
		if t, ok := r.takeTomb(from, tag); ok {
			panic(fmt.Sprintf(
				"par: rank %d: message %s from rank %d was dropped by fault injection but awaited with Recv; lossy streams must use RecvTimeout",
				r.ID, tagLabel(int(tag)), t.From))
		}
		r.blockingRecv(from, tag)
	}
}

// blockingRecv waits for the next physical delivery, panicking with a
// who-was-waiting-on-what diagnostic if the world is poisoned first.
func (r *Rank) blockingRecv(from int, tag Tag) {
	m, ok := r.w.inbox[r.ID].wait(r.w)
	if !ok {
		panic(fmt.Sprintf(
			"par: rank %d: inbox closed (world poisoned by a peer panic) while receiving %s from %s",
			r.ID, tagLabel(int(tag)), rankLabel(from)))
	}
	r.stash(m)
}

// RecvTimeout is Recv with loss tolerance: if the awaited message was
// dropped by fault injection, the receiver blocks (in virtual time) until
// the message's modeled arrival plus the given grace period, charged to
// the fault-wait category, and returns ok == false. Determinism note:
// "timeout" here is not a wall-clock race — the transport delivers a
// tombstone for every loss, so the outcome is a pure function of the fault
// plan. With no injector attached RecvTimeout never times out and is
// exactly Recv.
func (r *Rank) RecvTimeout(from int, tag Tag, grace float64) (Msg, bool) {
	for {
		if m, ok := r.takePending(from, tag); ok {
			r.recvAdvance(m)
			return m, true
		}
		if t, ok := r.takeTomb(from, tag); ok {
			r.chargeFaultWait(t.Arrive+grace-r.Clock, tag, t.From)
			return Msg{}, false
		}
		r.blockingRecv(from, tag)
	}
}

// AnyRank matches any source rank in Recv and TryRecv.
const AnyRank = -1

// rankLabel names a source-rank matcher for diagnostics.
func rankLabel(from int) string {
	if from == AnyRank {
		return "any rank"
	}
	return fmt.Sprintf("rank %d", from)
}

// TryRecv returns a matching message if one has already been physically
// delivered, without blocking. The clock advances to the arrival time on
// success. Used by polling service loops (the paper's asynchronous donor
// search servicing). Loss tombstones are never matched: to a polling
// protocol a dropped message is simply one that never shows up.
func (r *Rank) TryRecv(from int, tag Tag) (Msg, bool) {
	// Drain everything physically available first. The poison check keeps
	// a polling service loop from spinning forever against a dead world.
	for {
		m, ok := r.w.inbox[r.ID].take()
		if !ok {
			break
		}
		r.stash(m)
	}
	if m, ok := r.takePending(from, tag); ok {
		r.recvAdvance(m)
		return m, true
	}
	if r.w.inbox[r.ID].isPoisoned() {
		panic(fmt.Sprintf(
			"par: rank %d: inbox closed (world poisoned by a peer panic) while polling %s from %s",
			r.ID, tagLabel(int(tag)), rankLabel(from)))
	}
	return Msg{}, false
}

// stash routes a physically delivered message to the matchable pending
// list, or to the tombstone list if it is a fault-injected loss marker.
func (r *Rank) stash(m Msg) {
	if m.Lost {
		r.tombs = append(r.tombs, m)
		return
	}
	r.pending = append(r.pending, m)
}

// takePending matches and removes a delivered message. A wildcard takes the
// earliest arrival (see Msg.before); a named sender's messages are taken in
// the order it sent them.
func (r *Rank) takePending(from int, tag Tag) (Msg, bool) {
	at := -1
	if from == AnyRank {
		for i := range r.pending {
			if m := &r.pending[i]; m.Tag == tag && (at < 0 || m.before(&r.pending[at])) {
				at = i
			}
		}
	} else {
		for i := range r.pending {
			if m := &r.pending[i]; m.Tag == tag && m.From == from {
				at = i
				break
			}
		}
	}
	if at < 0 {
		return Msg{}, false
	}
	m := r.pending[at]
	r.pending = append(r.pending[:at], r.pending[at+1:]...)
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opRecv, wild: from == AnyRank, peer: int32(m.From),
			tag: int32(tag), n: int64(m.flow - flowID(m.From, 0))})
	}
	return m, true
}

// before is the order in which wildcard receives take delivered messages.
// The pending list is in physical-arrival order, which races between
// senders; the deterministic minimum (Arrive, sender, sequence) makes
// wildcard receives — and the trace event streams they emit — reproducible
// run to run. Per-sender FIFO is preserved (the flow id rises per sender).
func (m *Msg) before(o *Msg) bool {
	return m.Arrive < o.Arrive || (m.Arrive == o.Arrive && m.flow < o.flow)
}

// takeTomb matches and removes a loss tombstone, same matching rule as
// takePending.
func (r *Rank) takeTomb(from int, tag Tag) (Msg, bool) {
	for i, m := range r.tombs {
		if m.Tag == tag && (from == AnyRank || m.From == from) {
			r.tombs = append(r.tombs[:i], r.tombs[i+1:]...)
			return m, true
		}
	}
	return Msg{}, false
}

// barrierSync rendezvouses with all ranks and advances the clock to the
// global max.
func (r *Rank) barrierSync() {
	if len(r.tombs) > 0 {
		// Loss tombstones do not survive a rendezvous: every lossy exchange
		// here completes between barriers, so anything left is from a
		// polling protocol that will never consume it.
		r.tombs = r.tombs[:0]
	}
	if r.w.met != nil {
		r.w.met.barrier.Add1(r.ID, int(r.phase), 1)
	}
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opSync})
	}
	r.syncTo(r.w.bar.sync(r.Clock, r.ID, r.w))
}

// syncTo leaves a rendezvous: the clock moves to the latest any rank brought
// to it, the jump is attributed to barrier wait, and the trace names the
// rank whose clock set the release time.
func (r *Rank) syncTo(maxClock float64, maxRank int) {
	if wait := maxClock - r.Clock; wait > 0 {
		if r.tr != nil {
			r.emit(trace.KindBarrier, r.Clock, wait, TagCollective, maxRank, 0, 0)
		}
		if r.w.met != nil {
			r.w.met.barWait.Observe1(r.ID, int(r.phase), wait)
		}
		r.waitBar[r.phase] += wait
		r.advance(wait)
	}
}

// Barrier synchronizes all ranks; every clock advances to the global max
// plus a small synchronization cost (a log2(n) latency tree).
func (r *Rank) Barrier() {
	r.barrierSync()
	r.barrierCost()
}

// barrierCost charges the latency tree of one barrier.
func (r *Rank) barrierCost() {
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opBarrierCost})
	}
	if r.w.n > 1 {
		dt := r.w.model.LatencySec * log2ceil(r.w.n)
		if r.tr != nil {
			r.emit(trace.KindSync, r.Clock, dt, TagCollective, trace.NoPeer, 0, 0)
		}
		r.advance(dt)
	}
}

// AllGather collects one value from every rank and returns the slice indexed
// by rank; the cost is modeled as a log-depth tree of messages of the given
// per-item byte size.
//
// The slice is the world's scratch, not a copy: read it, never write it, and
// only until this rank's next collective. Collectives alternate between two
// scratches, and every rank makes the same collectives in the same order, so
// a rank writes this one again two collectives on, and none finishes the
// collective in between before every rank has entered it.
func (r *Rank) AllGather(x any, bytesPerItem int) []any {
	all := r.w.anys[r.nextScratch()]
	all[r.ID] = x
	r.barrierSync()
	// The second rendezvous protects nothing the scratch parity does not;
	// it stays because the tape and the barrier count record it.
	r.barrierSync()
	r.gatherCost(bytesPerItem)
	return all
}

// AllGatherFloats collects k = len(x) values from every rank, each rank
// passing the same k, and returns them rank-major: rank i's at [i·k, i·k+k).
// It allocates nothing once a gather of that width has run, and is timed as
// AllGather(x, 8k). The slice has AllGather's lifetime.
func (r *Rank) AllGatherFloats(x []float64) []float64 {
	w, k := r.w, len(x)
	p := r.nextScratch()
	w.floatMu.Lock()
	if len(w.floats[p]) < w.n*k {
		// Only the first rank into a wider gather grows it: the rest find
		// the new rows, and nothing was written to the old ones.
		w.floats[p] = make([]float64, w.n*k)
	}
	all := w.floats[p][:w.n*k]
	copy(all[r.ID*k:], x)
	w.floatMu.Unlock()
	r.barrierSync()
	r.barrierSync()
	r.gatherCost(8 * k)
	return all
}

// nextScratch counts a collective and names the scratch it uses.
func (r *Rank) nextScratch() int {
	r.colls++
	return int(r.colls & 1)
}

// gatherCost charges the modeled log-depth tree cost of one gather-style
// collective. Shared by AllGather and the typed reductions so both advance
// virtual time and emit trace events identically.
func (r *Rank) gatherCost(bytesPerItem int) {
	w := r.w
	if r.tp != nil {
		r.tp.add(tapeOp{kind: opGatherCost, n: int64(bytesPerItem)})
	}
	if w.n > 1 {
		depth := log2ceil(w.n)
		dt := depth * (w.model.LatencySec + float64(bytesPerItem*w.n)/w.model.BandwidthBps)
		if r.tr != nil {
			r.emit(trace.KindGather, r.Clock, dt, TagCollective, trace.NoPeer, bytesPerItem*w.n, 0)
		}
		r.advance(dt)
	}
}

// AllReduceSum sums a float64 across ranks without allocating, in rank
// order, timed as AllGather(x, 8).
func (r *Rank) AllReduceSum(x float64) float64 {
	var s float64
	for _, v := range r.AllGatherFloats([]float64{x}) {
		s += v
	}
	return s
}

// AllReduceMax maximizes a float64 across ranks without allocating.
func (r *Rank) AllReduceMax(x float64) float64 {
	m := x
	for _, v := range r.AllGatherFloats([]float64{x}) {
		if v > m {
			m = v
		}
	}
	return m
}

func log2ceil(n int) float64 {
	d := 0.0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	return d
}

// latest folds the clocks ranks bring to one rendezvous into the latest of
// them and the rank that brought it (the rank that releases the others).
// Equal clocks tie-break to the lowest rank id — never to the order of the
// offers, which would make wait attribution (and traced event streams)
// scheduler-dependent.
type latest struct {
	clock float64
	rank  int
	n     int // clocks offered so far
}

func (l *latest) offer(clock float64, rank int) {
	if l.n == 0 || clock > l.clock || (clock == l.clock && rank < l.rank) {
		l.clock, l.rank = clock, rank
	}
	l.n++
}

// barrier is a reusable n-party rendezvous that also computes the max clock
// and which rank held it.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	gen      int
	cur      latest // the generation ranks are arriving at
	result   latest // the generation that last completed
	poisoned bool
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

// sync blocks until all n ranks have called it, then returns the maximum
// clock passed by any rank in this generation and the rank that passed it
// (see latest). When the world has a parallelism gate, each waiter hands its
// run slot back before parking — otherwise k-1 parked waiters could starve
// the one rank still computing toward the rendezvous — and re-acquires it
// after release, strictly outside b.mu.
//
// A rendezvous that completed returns to every rank, even one that wakes to
// find the world poisoned since: which ranks were still parked when a peer
// died is host timing, and what a rank does between this return and its next
// blocking call must not depend on it (core records a step's accounts
// there). Such a rank meets the poison at that next call.
func (b *barrier) sync(clock float64, rank int, w *World) (float64, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		panic("par: barrier poisoned by peer rank panic")
	}
	b.cur.offer(clock, rank)
	if b.cur.n == b.n {
		b.result, b.cur = b.cur, latest{}
		b.gen++
		b.cond.Broadcast()
		return b.result.clock, b.result.rank
	}
	gen := b.gen
	for gen == b.gen && !b.poisoned {
		if w.gate == nil {
			b.cond.Wait()
			continue
		}
		w.gateRelease()
		b.cond.Wait()
		b.mu.Unlock()
		// A false return means done is closed: the world is being poisoned
		// (this barrier's own flag may lag by a few instructions), and the
		// check below decides. Every later acquire fails fast, so running on
		// without a slot cannot starve anyone.
		ok := w.gateAcquire()
		b.mu.Lock()
		if !ok {
			break
		}
	}
	if gen == b.gen {
		panic("par: barrier poisoned by peer rank panic")
	}
	return b.result.clock, b.result.rank
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
