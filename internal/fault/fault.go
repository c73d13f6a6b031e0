// Package fault provides deterministic, seeded fault injection for the
// virtual-clock runtime: per-rank compute slowdowns over step windows
// (stragglers), per-link latency/bandwidth degradation, per-tag message
// loss, and scheduled rank crashes. A Plan is pure data (loadable from
// JSON); an Engine compiled from it answers the runtime's queries — the
// machine model's rate hooks, the transport's drop decision, and the
// solution loop's crash schedule — as pure functions of the plan, the
// seed, and integer coordinates (rank, step, message sequence number), so
// a faulted run is bit-reproducible: same plan + seed, same event stream.
//
// All perturbations are expressed against the virtual clock. A "2x
// straggler" means the afflicted rank's modeled compute rate halves while
// the window is active, so its virtual clock advances twice as fast per
// flop; a "dropped message" means the payload never becomes available to
// the receiver, while a zero-byte tombstone still crosses the wire so
// timeout-aware receivers (par.Rank.RecvTimeout) can detect the loss
// deterministically instead of deadlocking. Faults activate only inside
// the measured timestep loop (the runtime reports step -1 during
// preprocessing and restart re-setup, when no window matches).
package fault

import (
	"encoding/json"
	"fmt"
	"os"
)

// Straggler slows one rank's compute rate over a step window, modeling a
// shared node that lost cycles to another job (the paper's SP2/SP runs
// were done on exactly such machines).
type Straggler struct {
	// Rank is the afflicted rank.
	Rank int `json:"rank"`
	// Factor is the slowdown: 2 means compute takes twice the virtual
	// time. Must be >= 1.
	Factor float64 `json:"factor"`
	// FromStep (inclusive) and ToStep (exclusive) bound the afflicted
	// timesteps. ToStep <= FromStep means "to the end of the run".
	FromStep int `json:"from_step"`
	ToStep   int `json:"to_step"`
}

// LinkFault degrades the interconnect between two ranks over a step
// window: latency is multiplied by LatencyFactor and bandwidth divided by
// BandwidthFactor.
type LinkFault struct {
	// From and To are the link endpoints; -1 matches any rank.
	From int `json:"from"`
	To   int `json:"to"`
	// LatencyFactor multiplies the point-to-point startup cost (>= 1).
	LatencyFactor float64 `json:"latency_factor"`
	// BandwidthFactor divides the link bandwidth (>= 1; 4 means the link
	// moves bytes at a quarter of its nominal rate).
	BandwidthFactor float64 `json:"bandwidth_factor"`
	FromStep        int     `json:"from_step"`
	ToStep          int     `json:"to_step"`
}

// Loss drops a fraction of the messages on a tag, decided per message by a
// seeded hash of (seed, from, to, tag, sequence number) so the set of
// dropped messages is a deterministic function of the plan.
//
// The halo, donor-search and fringe-value exchanges ride a reliable
// transport and degrade gracefully under loss (retries, then orphan-point
// fallback). Collectives never traverse the lossy transport. Loss on the
// implicit solver's pipeline tag (2) aborts the run with a diagnostic —
// that tightly-coupled sweep protocol cannot tolerate loss, matching a
// real MPI job's fate.
type Loss struct {
	// Tag is the par message-tag value to afflict; -1 matches any tag.
	// (halo=1, pipeline=2, bbox=3, search-req=4, search-rep=5, forward=6,
	// repart=8, fringe values=101.)
	Tag int `json:"tag"`
	// From and To restrict the loss to one direction; -1 matches any rank.
	From int `json:"from"`
	To   int `json:"to"`
	// Prob is the per-message drop probability in [0, 1].
	Prob     float64 `json:"prob"`
	FromStep int     `json:"from_step"`
	ToStep   int     `json:"to_step"`
}

// Crash kills one rank at the top of one timestep. The runtime surfaces it
// as a typed error (par.Crash inside par.RankFailure) and, when
// checkpointing is enabled, the run restarts from the last checkpoint with
// the dead rank's work re-spread over the survivors.
type Crash struct {
	Rank int `json:"rank"`
	Step int `json:"step"`
}

// Plan is a complete deterministic fault schedule for one run. The zero
// Plan injects nothing; a nil *Plan disables the fault layer entirely
// (bit-identical to an unfaulted run).
type Plan struct {
	// Seed feeds the per-message loss hash. Two plans that differ only in
	// Seed drop different (but individually deterministic) message sets.
	Seed       int64       `json:"seed"`
	Stragglers []Straggler `json:"stragglers,omitempty"`
	Links      []LinkFault `json:"links,omitempty"`
	Losses     []Loss      `json:"losses,omitempty"`
	Crashes    []Crash     `json:"crashes,omitempty"`
}

// Validate reports the first structural problem in the plan.
func (p *Plan) Validate() error {
	for i, s := range p.Stragglers {
		if s.Rank < 0 {
			return fmt.Errorf("fault: straggler %d: negative rank %d", i, s.Rank)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: straggler %d: factor %g < 1", i, s.Factor)
		}
	}
	for i, l := range p.Links {
		if l.From < -1 || l.To < -1 {
			return fmt.Errorf("fault: link %d: invalid endpoints %d->%d", i, l.From, l.To)
		}
		if l.LatencyFactor != 0 && l.LatencyFactor < 1 {
			return fmt.Errorf("fault: link %d: latency factor %g < 1", i, l.LatencyFactor)
		}
		if l.BandwidthFactor != 0 && l.BandwidthFactor < 1 {
			return fmt.Errorf("fault: link %d: bandwidth factor %g < 1", i, l.BandwidthFactor)
		}
	}
	for i, l := range p.Losses {
		if l.Prob < 0 || l.Prob > 1 {
			return fmt.Errorf("fault: loss %d: probability %g outside [0,1]", i, l.Prob)
		}
		if l.Tag < -1 {
			return fmt.Errorf("fault: loss %d: invalid tag %d", i, l.Tag)
		}
		if l.From < -1 || l.To < -1 {
			return fmt.Errorf("fault: loss %d: invalid endpoints %d->%d", i, l.From, l.To)
		}
	}
	for i, c := range p.Crashes {
		if c.Rank < 0 {
			return fmt.Errorf("fault: crash %d: negative rank %d", i, c.Rank)
		}
		if c.Step < 0 {
			return fmt.Errorf("fault: crash %d: negative step %d", i, c.Step)
		}
	}
	return nil
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Stragglers) == 0 && len(p.Links) == 0 &&
			len(p.Losses) == 0 && len(p.Crashes) == 0
}

// HasCrashes reports whether the plan schedules any rank crash (which is
// what makes checkpointing worth its cost).
func (p *Plan) HasCrashes() bool { return p != nil && len(p.Crashes) > 0 }

// ParsePlan decodes a JSON fault plan and validates it.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses a JSON fault plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return ParsePlan(data)
}

// stepIn reports whether step falls inside the [from, to) window, with
// to <= from meaning open-ended.
func stepIn(step, from, to int) bool {
	return step >= from && (to <= from || step < to)
}

// Engine answers the runtime's fault queries for one run. Methods indexed
// by rank are called only from that rank's goroutine (each rank reads and
// writes its own current-step slot), so the engine needs no locks. An
// engine may be re-attached across restart attempts; the consumed state of
// crash entries persists so a crash fires exactly once per run.
type Engine struct {
	plan *Plan
	// curStep[r] is rank r's current timestep, -1 outside the measured
	// loop. Each rank touches only its own slot.
	curStep []int
	// crashed marks plan crash entries that already fired this run.
	crashed []bool
}

// NewEngine compiles a plan. A nil plan returns a nil engine (no faults).
func NewEngine(p *Plan) *Engine {
	if p == nil {
		return nil
	}
	return &Engine{plan: p, crashed: make([]bool, len(p.Crashes))}
}

// Attach sizes the engine for a world of n ranks (called once per run
// attempt, before the world starts). Crash consumption survives Attach so
// a restarted run does not re-fire an already-consumed crash.
func (e *Engine) Attach(n int) {
	e.curStep = make([]int, n)
	for i := range e.curStep {
		e.curStep[i] = -1
	}
}

// BeginStep records that rank entered the given timestep; fault windows
// are evaluated against it. Called by each rank for itself only.
func (e *Engine) BeginStep(rank, step int) {
	if rank < len(e.curStep) {
		e.curStep[rank] = step
	}
}

// step returns rank's current step, -1 when unknown.
func (e *Engine) step(rank int) int {
	if rank < 0 || rank >= len(e.curStep) {
		return -1
	}
	return e.curStep[rank]
}

// RateScale implements the machine model's per-rank compute-rate hook: it
// returns the multiplicative factor (<= 1) applied to the nominal rate at
// virtual time t. Stacked stragglers multiply.
func (e *Engine) RateScale(rank int, t float64) float64 {
	step := e.step(rank)
	if step < 0 {
		return 1
	}
	s := 1.0
	for _, f := range e.plan.Stragglers {
		if f.Rank == rank && f.Factor > 1 && stepIn(step, f.FromStep, f.ToStep) {
			s /= f.Factor
		}
	}
	return s
}

// LinkScale implements the machine model's link hook: multiplicative
// factors on the from→to link's latency (>= 1) and bandwidth (<= 1) at
// virtual time t. The window is evaluated against the sender's step.
func (e *Engine) LinkScale(from, to int, t float64) (latScale, bwScale float64) {
	latScale, bwScale = 1, 1
	step := e.step(from)
	if step < 0 {
		return
	}
	for _, f := range e.plan.Links {
		if f.From != -1 && f.From != from {
			continue
		}
		if f.To != -1 && f.To != to {
			continue
		}
		if !stepIn(step, f.FromStep, f.ToStep) {
			continue
		}
		if f.LatencyFactor > 1 {
			latScale *= f.LatencyFactor
		}
		if f.BandwidthFactor > 1 {
			bwScale /= f.BandwidthFactor
		}
	}
	return
}

// Drop implements the transport's loss decision for one physical message
// attempt: a seeded hash of (from, to, tag, seq) compared against the
// matching loss probabilities. Each retry attempt carries a fresh sequence
// number and so re-rolls independently.
func (e *Engine) Drop(from, to, tag int, seq uint64) bool {
	step := e.step(from)
	if step < 0 {
		return false
	}
	for _, l := range e.plan.Losses {
		if l.Prob <= 0 {
			continue
		}
		if l.Tag != -1 && l.Tag != tag {
			continue
		}
		if l.From != -1 && l.From != from {
			continue
		}
		if l.To != -1 && l.To != to {
			continue
		}
		if !stepIn(step, l.FromStep, l.ToStep) {
			continue
		}
		if hash01(uint64(e.plan.Seed), uint64(from), uint64(to), uint64(tag), seq) < l.Prob {
			return true
		}
	}
	return false
}

// CrashNow reports whether rank is scheduled to crash at step, consuming
// the matching plan entry so it fires exactly once per run (a restarted
// attempt replaying the same step does not re-crash). Called by each rank
// for itself only — the rank filter runs before the consumed-flag access
// so concurrent ranks never touch each other's entries.
func (e *Engine) CrashNow(rank, step int) bool {
	for i, c := range e.plan.Crashes {
		if c.Rank != rank || c.Step != step {
			continue
		}
		if e.crashed[i] {
			continue
		}
		e.crashed[i] = true
		return true
	}
	return false
}

// hash01 maps the message coordinates to a uniform value in [0, 1) with a
// splitmix64-style finalizer over the mixed inputs.
func hash01(vs ...uint64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// 53 significant bits into [0, 1).
	return float64(h>>11) / float64(1<<53)
}
